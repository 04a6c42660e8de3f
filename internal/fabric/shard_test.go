package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestMinCrossNodeLatencyIsALowerBound(t *testing.T) {
	par := testParams()
	bound := par.MinCrossNodeLatency()
	if bound <= 0 {
		t.Fatalf("bound %v not positive", bound)
	}
	// Every cross-node delivery — any size, any extra overhead — must
	// arrive at least bound after the send decision, or conservative
	// windows would mis-order events.
	eng := sim.NewEngine()
	m, err := NewMachine(eng, par, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(8, func(p *sim.Proc) {
		if p.ID() != 0 {
			return
		}
		for _, n := range []int{0, 1, 7, 4096, 1 << 20} {
			for _, ov := range []float64{0, 1, 250.7} {
				now := p.Now()
				arrive := m.DeliverSharded(p, 7, &Msg{From: 0, Size: n}, XferOpt{Overhead: ov})
				if arrive < now+bound {
					t.Errorf("size %d overhead %v: arrive %v < now %v + bound %v", n, ov, arrive, now, bound)
				}
				p.Elapse(1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAlignedPartition(t *testing.T) {
	par := testParams() // 4 nodes x 2 cores
	for _, tc := range []struct {
		nranks, shards int
		wantShards     int
	}{
		{8, 1, 1}, {8, 2, 2}, {8, 4, 4}, {8, 8, 4}, {8, 0, 1}, {6, 2, 2},
	} {
		part, k := NodeAlignedPartition(par, tc.nranks, tc.shards)
		if k != tc.wantShards {
			t.Errorf("nranks=%d shards=%d: effective %d, want %d", tc.nranks, tc.shards, k, tc.wantShards)
		}
		if len(part) != tc.nranks {
			t.Fatalf("partition length %d, want %d", len(part), tc.nranks)
		}
		seen := map[int]int{} // node -> shard
		prev := 0
		for r, s := range part {
			if s < 0 || s >= k {
				t.Fatalf("rank %d -> shard %d outside [0,%d)", r, s, k)
			}
			if s < prev {
				t.Fatalf("partition not monotone at rank %d", r)
			}
			prev = s
			node := r / par.CoresPerNode
			if have, ok := seen[node]; ok && have != s {
				t.Fatalf("node %d split across shards %d and %d", node, have, s)
			}
			seen[node] = s
		}
		if k == tc.shards && tc.shards > 1 {
			used := map[int]bool{}
			for _, s := range part {
				used[s] = true
			}
			if len(used) != k {
				t.Errorf("nranks=%d shards=%d: only %d shards used", tc.nranks, tc.shards, len(used))
			}
		}
	}
}

// trafficRun drives a small cross-node exchange over DeliverSharded at
// the given shard count and returns each rank's message arrival log
// plus the final virtual time.
func trafficRun(t *testing.T, shards int) ([]string, sim.Time) {
	t.Helper()
	par := testParams()
	eng := sim.NewEngine()
	if shards > 1 {
		part, k := NodeAlignedPartition(par, 8, shards)
		eng.Shards = k
		eng.Partition = part
		eng.Lookahead = par.MinCrossNodeLatency()
	}
	m, err := NewMachine(eng, par, 8)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	logs := make([][]string, 8)
	if err := eng.Run(8, func(p *sim.Proc) {
		r := p.ID()
		partner := (r + 4) % 8 // two nodes away: always cross-node
		for i := 0; i < rounds; i++ {
			m.Compute(p, float64(500+97*r+13*i))
			m.DeliverSharded(p, partner, &Msg{From: r, Kind: 1, Tag: i, Size: 256 + 32*r}, XferOpt{})
		}
		for got := 0; got < rounds; got++ {
			msg := m.Recv(p, Match{From: Any, Tag: Any})
			logs[r] = append(logs[r], fmt.Sprintf("from %d tag %d size %d @%d", msg.From, msg.Tag, msg.Size, msg.Arrived))
		}
	}); err != nil {
		t.Fatal(err)
	}
	var flat []string
	for r, l := range logs {
		for _, s := range l {
			flat = append(flat, fmt.Sprintf("r%d: %s", r, s))
		}
	}
	msgs, bytes := m.ShardedTraffic()
	if msgs != 8*rounds || bytes <= 0 {
		t.Fatalf("shards=%d: traffic counters %d msgs %d bytes", shards, msgs, bytes)
	}
	return flat, eng.Stats().FinalTime
}

// TestDeliverShardedEquivalence: the sharded delivery path produces
// identical per-rank arrival streams and final time on one shard and
// on 2 and 4 shards of a node-aligned partition. The one-shard stream
// is anchored to what the goroutine-per-rank reference scheduler
// produced before it was retired.
func TestDeliverShardedEquivalence(t *testing.T) {
	refLog, refFinal := trafficRun(t, 1)
	if first, last := "r0: from 4 tag 0 size 384 @2488", "r7: from 3 tag 4 size 352 @8834"; refFinal != 9834 || len(refLog) != 40 || refLog[0] != first || refLog[39] != last {
		t.Errorf("one-shard run moved: final %d, %d entries, %q .. %q; recorded 9834, 40, %q .. %q",
			refFinal, len(refLog), refLog[0], refLog[len(refLog)-1], first, last)
	}
	for _, shards := range []int{2, 4} {
		log, final := trafficRun(t, shards)
		if final != refFinal {
			t.Errorf("shards=%d: final time %v, want %v", shards, final, refFinal)
		}
		if len(log) != len(refLog) {
			t.Fatalf("shards=%d: %d log entries, want %d", shards, len(log), len(refLog))
		}
		for i := range refLog {
			if log[i] != refLog[i] {
				t.Errorf("shards=%d: entry %d = %q, want %q", shards, i, log[i], refLog[i])
			}
		}
	}
}

// TestDeliverShardedIntraNode: same-node sharded delivery stays on the
// local path (cheap, no NIC) and still matches waiters.
func TestDeliverShardedIntraNode(t *testing.T) {
	eng, m := newTestMachine(t, 8)
	var arrived sim.Time
	if err := eng.Run(8, func(p *sim.Proc) {
		switch p.ID() {
		case 0:
			m.DeliverSharded(p, 1, &Msg{From: 0, Size: 64}, XferOpt{})
		case 1:
			msg := m.Recv(p, Match{From: Any, Tag: Any})
			arrived = msg.Arrived
		}
	}); err != nil {
		t.Fatal(err)
	}
	bound := m.Par.MinCrossNodeLatency()
	if arrived <= 0 || arrived >= bound {
		t.Fatalf("intra-node arrival %v; want (0, %v)", arrived, bound)
	}
}
