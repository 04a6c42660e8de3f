package critpath

import (
	"testing"

	"repro/internal/obs/profile"
)

// record plays a hand-built three-rank job into r, in virtual-time
// order. Rank 0 computes to 100 and sends m1 to rank 1 (parked since
// 20), which wakes at 150, copies through shared memory over [160,190)
// inside a put, and at 200 releases a lock rank 2 has waited for since
// 30 (granted at 210). Rank 2 then starts a rendezvous with rank 0: its
// request a lands at 240, rank 0 answers at 250 with the clear-to-send
// c, whose handler on rank 2 (at 270) ships the data d and wakes the
// parked sender — the ambient wake. Rank 2 computes on to 400 and is
// the last to finish.
func record(r *Rec) {
	r.BeginJob("hand-built", 3)
	r.Parked(1, "recv", 20)
	r.Parked(2, "lock", 30)
	m1 := r.MsgHop(0, 100, 110, 150, 0, 1)
	r.Parked(0, "recv", 105)
	r.WakeCause(1, m1)
	r.Resumed(1, 150)
	r.RawPhase(1, profile.OpPut, profile.PhaseShmCopy, 160, 190)
	r.RawScope(1, profile.OpPut, 155, 195)
	r.WakeGrant(2, 1, 200)
	r.Finished(1, 205)
	r.Resumed(2, 210)
	a := r.MsgHop(2, 220, 220, 240, 1, 0)
	r.Parked(2, "send", 221)
	r.WakeCause(0, a)
	r.Resumed(0, 240)
	c := r.MsgHop(0, 250, 250, 270, 0, 1)
	r.Parked(0, "recv", 250)
	prev := r.SetAmbient(2, c) // c's delivery handler runs on rank 2
	d := r.MsgHop(2, 270, 275, 330, 1, 0)
	r.WakeAmbient(2)
	r.SetAmbient(2, prev)
	r.Resumed(2, 270)
	r.WakeCause(0, d)
	r.Resumed(0, 330)
	r.Finished(0, 340)
	r.Finished(2, 400)
}

// TestWalkTilesTheMakespan: the backward walk from the last finisher
// crosses the ambient wake (2 <- 0), a message hop (0 <- 2), the lock
// grant (2 <- 1) and another message hop (1 <- 0), and the segments it
// emits tile the 400 ns makespan exactly — by phase, by rank and by
// operation.
func TestWalkTilesTheMakespan(t *testing.T) {
	r := New(nil)
	record(r)
	rep := r.Report()
	if jobs := rep.Jobs; len(jobs) != 1 || jobs[0].Makespan != 400 || jobs[0].PathNs != 400 || jobs[0].Start != 2 {
		t.Fatalf("jobs = %+v, want one 400 ns job walked from rank 2 with path == makespan", jobs)
	}
	phases := map[string]int64{}
	for _, p := range rep.Phases {
		phases[p.Phase] = p.CritNs
	}
	// Wire: c (20) + a (20) + m1 (40), m1 queued 10 behind its NIC; the
	// lock wait is the 10 ns between release and grant; rank 1's copy;
	// everything else is computation.
	for ph, want := range map[string]int64{"wire.xfer": 80, "wire.queue": 10, "blocked": 10, "shm.copy": 30, "local": 270} {
		if phases[ph] != want {
			t.Errorf("critical %s = %d ns, want %d (all: %v)", ph, phases[ph], want, phases)
		}
	}
	for _, rk := range rep.Ranks {
		if want := []int64{180, 50, 170}[rk.Rank]; rk.CritNs != want {
			t.Errorf("rank %d carries %d ns of the path, want %d", rk.Rank, rk.CritNs, want)
		}
	}
	ops := map[string]int64{}
	for _, o := range rep.Ops {
		ops[o.Op] = o.CritNs
	}
	// The put's scope [155,195) labels the copy and the gaps around it.
	if ops["put"] != 40 || ops["-"] != 360 {
		t.Errorf("critical time by op = %v, want put 40 and none 360", ops)
	}
	if len(rep.Chains) != 1 || rep.Chains[0].Why != "lock" || rep.Chains[0].From != 1 || rep.Chains[0].WaitNs != 10 {
		t.Errorf("wait chains = %+v, want the one lock wait released by rank 1", rep.Chains)
	}
	if rep.TotalNs != 400 {
		t.Errorf("total = %d, want 400", rep.TotalNs)
	}
}

// TestSecondJobStartsClean: BeginJob analyzes the finished job into the
// aggregate and resets every log — a second, shorter job is walked on
// its own records only.
func TestSecondJobStartsClean(t *testing.T) {
	r := New(nil)
	record(r)
	r.BeginJob("second", 2)
	r.Parked(1, "recv", 5)
	r.WakeCause(1, r.MsgHop(0, 10, 10, 30, -1, -1))
	r.Resumed(1, 30)
	r.Finished(0, 12)
	r.Finished(1, 50)
	jobs := r.Report().Jobs
	if len(jobs) != 2 || jobs[1].Makespan != 50 || jobs[1].PathNs != 50 || jobs[1].Label != "second" {
		t.Fatalf("jobs = %+v, want the second job tiled on its own", jobs)
	}
	// Outside the open job's ranks nothing is recorded.
	if ref := r.MsgHop(7, 0, 0, 1, -1, -1); ref != 0 {
		t.Errorf("a hop from rank 7 of a two-rank job got reference %d", ref)
	}
}
