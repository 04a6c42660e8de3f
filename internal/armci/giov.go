package armci

import "fmt"

// GIOV mirrors armci_giov_t (SectionVI.A): a series of equal-sized
// data segments. For put/acc, Src entries are local addresses and Dst
// entries remote; for get, Src entries are remote and Dst local.
type GIOV struct {
	Src   []Addr // source address of each segment
	Dst   []Addr // destination address of each segment
	Bytes int    // length of each segment in bytes
}

// Len returns the number of segments (ptr_array_len).
func (g *GIOV) Len() int { return len(g.Src) }

// TotalBytes returns the total payload of the descriptor.
func (g *GIOV) TotalBytes() int { return g.Bytes * g.Len() }

// Validate reports the first structural problem.
func (g *GIOV) Validate() error {
	if len(g.Src) != len(g.Dst) {
		return fmt.Errorf("armci: giov src/dst length mismatch: %d vs %d", len(g.Src), len(g.Dst))
	}
	if g.Bytes <= 0 && len(g.Src) > 0 {
		return fmt.Errorf("armci: giov segment length %d must be positive", g.Bytes)
	}
	return nil
}

// ValidateIOV checks a full IOV operation descriptor array and that
// the remote side targets a single process.
func ValidateIOV(iov []GIOV, proc int, remoteIsSrc bool) error {
	for i := range iov {
		g := &iov[i]
		if err := g.Validate(); err != nil {
			return fmt.Errorf("armci: iov[%d]: %w", i, err)
		}
		remote, local := g.Dst, g.Src
		if remoteIsSrc {
			remote, local = g.Src, g.Dst
		}
		for j := range remote {
			if err := CheckSegment(i, j, remote[j], local[j], proc); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckSegment is ValidateIOV's check of segment j of iov[i]: the
// remote address is on proc, and neither address is NULL. A runtime
// that expands a strided descriptor straight into segments, with no
// I/O vector, runs it on each as segment j of iov[0].
func CheckSegment(i, j int, remote, local Addr, proc int) error {
	if remote.Rank != proc {
		return fmt.Errorf("armci: iov[%d] segment %d targets rank %d, want %d",
			i, j, remote.Rank, proc)
	}
	if remote.Nil() || local.Nil() {
		return fmt.Errorf("armci: iov[%d] segment %d has NULL address", i, j)
	}
	return nil
}
