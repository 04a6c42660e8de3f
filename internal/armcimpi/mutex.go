package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Mutexes implements the ARMCI mutex API with the MPI RMA queueing
// mutex algorithm of Latham et al. (SectionV.D): each mutex is a byte
// vector B of length nproc on its host; a lock sets B[i]=1 and fetches
// all other entries in one exclusive epoch. If any other entry is set,
// the process is enqueued and blocks in a wildcard-source MPI receive,
// generating no network traffic while it waits. Unlock clears B[i],
// fetches the rest, and forwards the lock to the first waiter found in
// a circular scan starting at i+1 (fairness) with a zero-byte message.
type Mutexes struct {
	r       *Runtime
	comm    *mpi.Comm // dedicated communicator (notification isolation)
	win     *mpi.Win
	counts  []int // mutexes hosted per comm rank; nil when uniform
	uniform int   // count hosted by every rank, when counts is nil
	scratch *fabric.Region
	// others is the fetch buffer an epoch returns, reused by the next:
	// Lock and Unlock are done with it before they open another.
	others []byte
}

// countFor returns the number of mutexes hosted by comm rank host.
func (m *Mutexes) countFor(host int) int {
	if m.counts == nil {
		return m.uniform
	}
	return m.counts[host]
}

// newMutexes collectively creates a mutex set over comm, with the
// caller hosting n mutexes.
func newMutexes(r *Runtime, parent *mpi.Comm, n int) (*Mutexes, error) {
	if n < 0 {
		return nil, fmt.Errorf("armcimpi: CreateMutexes(%d)", n)
	}
	comm := parent.Dup()
	m := &Mutexes{r: r, comm: comm, uniform: -1, others: make([]byte, comm.Size())}
	// Gather the counts at rank 0; in the overwhelmingly common case
	// every rank hosts the same count (GMR mutex sets host exactly one
	// each), so a scalar broadcast replaces the N-entry count vector
	// every rank would otherwise hold.
	all := comm.GatherI64(0, []int64{int64(n)})
	hdr := make([]int64, 1)
	if comm.Rank() == 0 {
		hdr[0] = all[0]
		for _, c := range all {
			if c != hdr[0] {
				hdr[0] = -1
			}
		}
	}
	hdr = comm.BcastI64(0, hdr)
	if hdr[0] >= 0 {
		m.uniform = int(hdr[0])
	} else {
		all = comm.BcastI64(0, all)
		m.counts = make([]int, len(all))
		for i, c := range all {
			m.counts[i] = int(c)
		}
	}
	reg := r.R.AllocMem(n * comm.Size())
	win, err := r.winCreate(comm, reg)
	if err != nil {
		return nil, err
	}
	m.win = win
	m.scratch = r.R.AllocMem(comm.Size() + 1)
	if comm.Rank() == 0 {
		r.W.mutexSets++
	}
	return m, nil
}

// CreateMutexes collectively creates n mutexes hosted on the calling
// process over the world.
func (r *Runtime) CreateMutexes(n int) (armci.Mutexes, error) {
	return newMutexes(r, r.R.CommWorld(), n)
}

func (m *Mutexes) tag(host, mtx int) int { return host*4096 + mtx }

// epoch performs the algorithm's single exclusive access epoch at the
// host: write my byte and fetch all others. Returns the other entries
// (indexed by comm rank, with my own slot zeroed) in the set's fetch
// buffer, valid until the next epoch.
func (m *Mutexes) epoch(host, mtx int, myByte byte) ([]byte, error) {
	me := m.comm.Rank()
	n := m.comm.Size()
	base := mtx * n
	m.scratch.Backing()[0] = myByte
	if err := m.win.Lock(mpi.LockExclusive, host); err != nil {
		return nil, err
	}
	if err := m.win.Put(
		mpi.LocalBuf{Region: m.scratch, Off: 0, Type: mpi.TypeContiguous(1)},
		host, base+me, mpi.TypeContiguous(1)); err != nil {
		return nil, err
	}
	if me > 0 {
		if err := m.win.Get(
			mpi.LocalBuf{Region: m.scratch, Off: 1, Type: mpi.TypeContiguous(me)},
			host, base, mpi.TypeContiguous(me)); err != nil {
			return nil, err
		}
	}
	if rest := n - me - 1; rest > 0 {
		if err := m.win.Get(
			mpi.LocalBuf{Region: m.scratch, Off: 1 + me, Type: mpi.TypeContiguous(rest)},
			host, base+me+1, mpi.TypeContiguous(rest)); err != nil {
			return nil, err
		}
	}
	if err := m.win.Unlock(host); err != nil {
		return nil, err
	}
	others := m.others
	copy(others[:me], m.scratch.Backing()[1:1+me])
	copy(others[me+1:], m.scratch.Backing()[1+me:n])
	return others, nil
}

// Lock acquires mutex mtx hosted on world rank proc.
func (m *Mutexes) Lock(mtx, proc int) {
	host := m.comm.RankOfWorld(proc)
	if host < 0 || mtx < 0 || mtx >= m.countFor(host) {
		panic(fmt.Sprintf("armcimpi: Lock(%d,%d): invalid mutex", mtx, proc))
	}
	t0 := m.r.R.P.Now()
	others, err := m.epoch(host, mtx, 1)
	if err != nil {
		panic(fmt.Sprintf("armcimpi: mutex lock epoch failed: %v", err))
	}
	queued := 0
	for _, b := range others {
		if b != 0 {
			queued++
		}
	}
	if queued > 0 {
		// Enqueued: wait locally for the lock to be forwarded.
		m.comm.Recv(mpi.AnySource, m.tag(host, mtx))
	}
	m.r.obs().Waited(obs.Wait{Kind: obs.WaitMutex, Rank: m.r.Rank(), From: t0, To: m.r.R.P.Now(), Peer: proc, N: queued})
}

// Unlock releases mutex mtx on world rank proc, forwarding it to the
// next waiting process in circular order.
func (m *Mutexes) Unlock(mtx, proc int) {
	host := m.comm.RankOfWorld(proc)
	if host < 0 || mtx < 0 || mtx >= m.countFor(host) {
		panic(fmt.Sprintf("armcimpi: Unlock(%d,%d): invalid mutex", mtx, proc))
	}
	others, err := m.epoch(host, mtx, 0)
	if err != nil {
		panic(fmt.Sprintf("armcimpi: mutex unlock epoch failed: %v", err))
	}
	me := m.comm.Rank()
	n := m.comm.Size()
	// Scan from me+1 for fairness (SectionV.D).
	for k := 1; k < n; k++ {
		j := (me + k) % n
		if others[j] != 0 {
			m.comm.Send(j, m.tag(host, mtx), nil)
			return
		}
	}
}

// Destroy collectively frees the mutex set.
func (m *Mutexes) Destroy() error {
	if err := m.win.Free(); err != nil {
		return err
	}
	if m.comm.Rank() == 0 {
		m.r.W.mutexSets--
	}
	sp := m.r.W.Mpi.M.Space(m.r.Rank())
	if m.win.LocalRegion() != nil {
		if err := sp.Free(m.win.LocalRegion().VA); err != nil {
			return err
		}
	}
	return sp.Free(m.scratch.VA)
}
