package mpi

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fabric"
)

// oracleSizes are the communicator sizes the metadata collectives are
// checked at: the degenerate ones, odd ones that leave a binomial tree
// ragged, and one a little larger.
var oracleSizes = []int{1, 2, 3, 5, 8, 17, 64}

// splitCase is one call of Split: each rank's (color, key).
type splitCase struct {
	name        string
	color, key  []int
	identityCut bool // the partition is the parent itself, in parent order
}

// splitCases builds the partitions checked at size n: random colors
// with MPI_UNDEFINED and duplicate keys, and the identity partition in
// the three shapes that reach its shortcut (Dup's keys, equal keys) or
// must not (reversed keys).
func splitCases(n int, rng *rand.Rand) []splitCase {
	rnd := func(colors, keys int) splitCase {
		c := splitCase{name: fmt.Sprintf("random/%dc%dk", colors, keys), color: make([]int, n), key: make([]int, n)}
		for i := range c.color {
			c.color[i] = rng.Intn(colors+1) - 1 // -1 is MPI_UNDEFINED
			c.key[i] = rng.Intn(keys)
		}
		return c
	}
	same := func(name string, key func(i int) int, identity bool) splitCase {
		c := splitCase{name: name, color: make([]int, n), key: make([]int, n), identityCut: identity}
		for i := range c.key {
			c.color[i], c.key[i] = 7, key(i)
		}
		return c
	}
	undefined := splitCase{name: "all-undefined", color: make([]int, n), key: make([]int, n)}
	for i := range undefined.color {
		undefined.color[i] = -1
	}
	return []splitCase{
		rnd(1, 2), rnd(3, 3), rnd(5, n+1),
		same("identity/dup-keys", func(i int) int { return i }, true),
		same("identity/equal-keys", func(int) int { return 0 }, true),
		same("reversed", func(i int) int { return -i }, n == 1),
		undefined,
	}
}

// oracleSplit is the serial reference: for each color, the members in
// (key, rank) order; negative colors have none.
func oracleSplit(c splitCase) map[int][]int {
	groups := map[int][]int{}
	for r, col := range c.color {
		if col >= 0 {
			groups[col] = append(groups[col], r)
		}
	}
	for _, g := range groups {
		sort.SliceStable(g, func(i, j int) bool { return c.key[g[i]] < c.key[g[j]] })
	}
	return groups
}

// TestMetadataCollectivesMatchOracle checks the gather-at-root metadata
// collectives against serial references at every size in oracleSizes:
// Split's groups, ranks, context ids and nil results; Dup; and the size
// table WinCreate builds, zero-size slices included. Each new
// communicator also carries an allreduce, so a wrong group or a context
// id shared across colors shows up as traffic crossing over. Afterwards
// every pooled message body has come back to the pool.
func TestMetadataCollectivesMatchOracle(t *testing.T) {
	for _, n := range oracleSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			cases := splitCases(n, rng)
			winSizes := make([]int, n)
			for i := range winSizes {
				if rng.Intn(3) > 0 {
					winSizes[i] = 8 * rng.Intn(64)
				}
			}
			got := make([][]*Comm, len(cases)) // [case][world rank]
			for i := range got {
				got[i] = make([]*Comm, n)
			}
			sums := make([][]int64, len(cases))
			for i := range sums {
				sums[i] = make([]int64, n)
			}
			sharesParent := make([]bool, len(cases)) // on rank 0
			dups := make([]*Comm, n)
			var worldCid int
			var tableSizes []int

			ledger := watchBufs(t)
			w := runMPI(t, n, func(r *Rank) {
				c := r.CommWorld()
				me := c.Rank()
				worldCid = c.ContextID()
				for i, sc := range cases {
					sub := c.Split(sc.color[me], sc.key[me])
					got[i][me] = sub
					if sub != nil {
						sums[i][me] = sub.AllreduceI64(OpSum, []int64{int64(me)})[0]
						if me == 0 {
							sharesParent[i] = &sub.GroupShared()[0] == &c.GroupShared()[0]
						}
					}
				}
				dups[me] = c.Dup()
				var reg *fabric.Region
				if winSizes[me] > 0 {
					reg = r.AllocMem(winSizes[me])
				}
				win, err := WinCreate(dups[me], reg)
				must(t, err)
				if me == 0 {
					tableSizes = append([]int(nil), win.state.sizes...)
				}
				must(t, win.Free())
			})
			w.M.Retire()
			if ledger.gets == 0 {
				t.Fatal("no pooled buffer was drawn: the hook is not wired")
			}
			if len(ledger.out) != 0 {
				t.Errorf("%d pooled buffers drawn and never returned", len(ledger.out))
			}

			cids := map[int]string{worldCid: "world"}
			claim := func(cid int, who string) {
				if prev, ok := cids[cid]; ok {
					t.Errorf("context id %d of %s already belongs to %s", cid, who, prev)
				}
				cids[cid] = who
			}
			for i, sc := range cases {
				want := oracleSplit(sc)
				for col, members := range want {
					who := fmt.Sprintf("%s color %d", sc.name, col)
					first := got[i][members[0]]
					var sum int64
					for _, m := range members {
						sum += int64(m)
					}
					for rank, world := range members {
						sub := got[i][world]
						if sub == nil {
							t.Fatalf("%s: world rank %d got nil", who, world)
						}
						if fmt.Sprint(sub.Group()) != fmt.Sprint(members) || sub.Rank() != rank {
							t.Errorf("%s: world rank %d got group %v rank %d, want %v rank %d", who, world, sub.Group(), sub.Rank(), members, rank)
						}
						if sub.ContextID() != first.ContextID() {
							t.Errorf("%s: world rank %d has context id %d, rank %d has %d", who, world, sub.ContextID(), members[0], first.ContextID())
						}
						if sums[i][world] != sum {
							t.Errorf("%s: allreduce on world rank %d = %d, want %d", who, world, sums[i][world], sum)
						}
					}
					claim(first.ContextID(), who)
				}
				if sc.identityCut && !sharesParent[i] {
					t.Errorf("%s: the identity partition copied the parent's group", sc.name)
				}
				for world, col := range sc.color {
					if col < 0 && got[i][world] != nil {
						t.Errorf("%s: world rank %d passed MPI_UNDEFINED and got a communicator", sc.name, world)
					}
				}
			}
			for world, d := range dups {
				if d.Size() != n || d.Rank() != world {
					t.Errorf("Dup on world rank %d: size %d rank %d", world, d.Size(), d.Rank())
				}
				if d.ContextID() != dups[0].ContextID() {
					t.Errorf("Dup: world rank %d has context id %d, rank 0 has %d", world, d.ContextID(), dups[0].ContextID())
				}
			}
			claim(dups[0].ContextID(), "dup")
			if fmt.Sprint(tableSizes) != fmt.Sprint(winSizes) {
				t.Errorf("window size table %v, want %v", tableSizes, winSizes)
			}
		})
	}
}
