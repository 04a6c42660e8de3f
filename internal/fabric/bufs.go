package fabric

import "math/bits"

// Payload buffers. Every in-flight payload — the snapshot an operation
// takes of its source bytes at issue, held until the bytes land — has
// one owner and one lifetime: the issuing site draws it with GetBuf,
// the event that applies it hands it back with PutBuf. The free list
// belongs to the Machine, so it is job-scoped (nothing outlives the
// job, nothing is shared between jobs) and, because the engine's event
// order is deterministic, so is every hit and miss: allocation counts
// repeat exactly from run to run, which a sync.Pool (drained by GC at
// arbitrary points) would not give. It is unsynchronized for the same
// reason NIC clocks and traffic counters are: full communication
// stacks run on one shard, one flow of control at a time.
//
// Buffers are filed by power-of-two capacity class. A request is
// served from the class that covers it, so a recycled buffer is never
// too small; a buffer handed back is filed under the largest class its
// capacity covers, so PutBuf accepts any slice, pooled or not.

// bufPool is the per-machine free list, indexed by capacity class.
type bufPool struct {
	free [bits.UintSize][][]byte
}

// BufHook, when non-nil, observes every buffer GetBuf hands out
// (put == false) and every buffer PutBuf receives, at full capacity,
// before it is filed (put == true). It exists for tests only and is
// set only from _test.go files: the use-after-release suites poison
// released buffers through it, and the release-accounting tests watch
// for a buffer released twice.
var BufHook func(b []byte, put bool)

// GetBuf returns an n-byte payload buffer whose contents are
// unspecified; the caller overwrites all of it. Ownership passes to
// the caller until the buffer is handed to PutBuf (a buffer that is
// never handed back is simply garbage-collected).
func (m *Machine) GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	var b []byte
	if l := m.bufs.free[class]; len(l) > 0 {
		b = l[len(l)-1][:n]
		l[len(l)-1] = nil
		m.bufs.free[class] = l[:len(l)-1]
	} else {
		b = make([]byte, n, 1<<class)
	}
	if BufHook != nil {
		BufHook(b[:cap(b)], false)
	}
	return b
}

// PutBuf gives b to the machine for reuse. The caller must hold no
// other reference to it: the next GetBuf may hand it to another
// operation.
func (m *Machine) PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if BufHook != nil {
		BufHook(b, true)
	}
	class := bits.Len(uint(len(b))) - 1
	m.bufs.free[class] = append(m.bufs.free[class], b)
}
