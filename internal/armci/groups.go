package armci

import (
	"sort"

	"repro/internal/mpi"
)

// In the paper's software stacks (Figure 1) MPI is present alongside
// ARMCI in every configuration, providing process management and
// collectives: an ARMCI processor group is backed directly by an MPI
// communicator (SectionV.A), whichever runtime moves the data.

// groupTagBase reserves a tag range for noncollective group formation.
const groupTagBase = 1 << 22

// GroupCreateCollective creates a processor group from world ranks;
// every world process calls (members and non-members alike), and
// non-members receive nil.
func GroupCreateCollective(r *mpi.Rank, members []int) (*Group, error) {
	ms := sortedUnique(members)
	color, key := -1, 0
	if i := sort.SearchInts(ms, r.ID()); i < len(ms) && ms[i] == r.ID() {
		color, key = 0, i
	}
	comm := r.CommWorld().Split(color, key)
	if comm == nil {
		return nil, nil
	}
	return &Group{Ranks: ms, Comm: comm}, nil
}

// GroupCreate creates a processor group noncollectively — only members
// call — using the recursive intercommunicator creation and merging
// algorithm of the authors' prior work (SectionV.A).
func GroupCreate(r *mpi.Rank, members []int) (*Group, error) {
	ms := sortedUnique(members)
	return &Group{Ranks: ms, Comm: mpi.CommCreateGroup(r.CommWorld(), ms, groupTagBase)}, nil
}

func sortedUnique(members []int) []int {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	out := ms[:0]
	for i, v := range ms {
		if i == 0 || v != ms[i-1] {
			out = append(out, v)
		}
	}
	return out
}
