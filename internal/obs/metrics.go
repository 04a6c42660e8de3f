package obs

import (
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Metric names used by the instrumented layers. Counters count events
// or bytes; "time" metrics accumulate virtual nanoseconds.
const (
	// MPI RMA layer (internal/mpi).
	COpsPut         = "rma.put.ops"         // puts issued
	COpsGet         = "rma.get.ops"         // gets issued
	COpsAcc         = "rma.acc.ops"         // accumulates issued
	COpsAmo         = "rma.amo.ops"         // fetch-and-op / compare-and-swap
	CBytesContig    = "rma.bytes.contig"    // payload bytes moved with contiguous datatypes
	CBytesPacked    = "rma.bytes.packed"    // payload bytes moved through datatype pack paths
	CBytesShm       = "rma.bytes.shm"       // payload bytes moved through the intra-node shm path
	CShmCopies      = "shm.copy"            // shared-memory segment copies (no NIC, no registration)
	CEpochs         = "epoch.count"         // passive-target epochs opened
	CEpochFlush     = "epoch.flush"         // MPI-3 flush / flush-all calls
	CPackBytes      = "dt.pack.bytes"       // bytes packed from noncontiguous origin layouts
	TLockWaitShared = "lock.wait.shared"    // time from lock request to grant (shared)
	TLockWaitExcl   = "lock.wait.exclusive" // time from lock request to grant (exclusive)
	TPack           = "dt.pack.time"        // origin-side datatype pack time
	HLockWait       = "lock.wait"           // lock-acquire wait histogram (all lock types)

	// ARMCI-MPI layer (internal/armcimpi).
	CGmrAlloc   = "gmr.alloc"         // GMR allocations (Malloc/MallocGroup)
	CGmrBytes   = "gmr.bytes"         // bytes exposed in GMRs
	CGmrFree    = "gmr.free"          // GMR frees
	CStaged     = "armci.staged"      // global-buffer staging events
	CPlanExec   = "plan.exec"         // transfer plans executed
	CPlanSegs   = "plan.segs"         // MPI-level segments issued by plans
	CNbIssued   = "nb.issued"         // request-based nonblocking operations issued
	CNbDone     = "nb.done"           // request-based operations completed at Wait/Test
	TMutexWait  = "mutex.wait"        // RMW mutex acquisition wait
	GMutexQueue = "mutex.queue.depth" // max waiters seen behind a mutex

	// Fabric (internal/fabric).
	CFabMsgs  = "fab.msgs"  // messages injected by the rank
	CFabBytes = "fab.bytes" // bytes injected by the rank

	// Data server (internal/dataserver).
	CDsRequests = "ds.requests" // requests sent to remote data servers
	TDsWait     = "ds.wait"     // time requests spent queued at servers

	// Transfer-plan routing layer (internal/armcimpi route.go): one
	// op/byte pair per route, emitted from the engine's single
	// RoutePolicy decision point. Per-segment re-entries of an already
	// routed descriptor inherit the descriptor's decision and are not
	// re-counted.
	CRouteSelf        = "route.self.ops"     // decisions routed to the load-store tier
	CRouteSelfBytes   = "route.self.bytes"   // payload bytes behind those decisions
	CRouteNode        = "route.node.ops"     // decisions routed to the same-node shm tier
	CRouteNodeBytes   = "route.node.bytes"   // payload bytes behind those decisions
	CRouteRMA         = "route.rma.ops"      // decisions routed to the wire RMA tier
	CRouteRMABytes    = "route.rma.bytes"    // payload bytes behind those decisions
	CRouteStaged      = "route.staged.ops"   // decisions routed to leader-staged RMA
	CRouteStagedBytes = "route.staged.bytes" // payload bytes behind those decisions

	// Locality-aware runtime (internal/dartmpi): dart.leader.* counts
	// staging events the executor actually modeled, route.staged.*
	// counts the decisions.
	CDartStaged      = "dart.leader.staged" // remote transfers staged through the node leader
	CDartStagedBytes = "dart.leader.bytes"  // bytes copied through leader staging buffers
)

// Hist is one log2 latency histogram: bucket i holds durations in
// [2^(i-1), 2^i) ns, bucket 0 holds zero.
type Hist = profile.Hist

// Metrics is the per-rank registry. Ranks are dense small integers;
// slices grow on demand so one registry can span jobs of different
// sizes (indices above a job's size simply stay zero).
type Metrics struct {
	counters map[string][]int64    // event / byte counters
	times    map[string][]sim.Time // accumulated virtual durations
	gauges   map[string][]int64    // high-water marks
	hists    map[string][]*Hist    // latency histograms
	links    []sim.Time            // per-node NIC busy time
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string][]int64{},
		times:    map[string][]sim.Time{},
		gauges:   map[string][]int64{},
		hists:    map[string][]*Hist{},
	}
}

// grow extends s with zeros until index n exists.
func grow[T any](s []T, n int) []T {
	var zero T
	for len(s) <= n {
		s = append(s, zero)
	}
	return s
}

// Add adds v to the named counter of one rank.
func (m *Metrics) Add(rank int, name string, v int64) {
	if m == nil || rank < 0 {
		return
	}
	s := grow(m.counters[name], rank)
	s[rank] += v
	m.counters[name] = s
}

// AddTime accumulates a virtual duration for one rank.
func (m *Metrics) AddTime(rank int, name string, d sim.Time) {
	if m == nil || rank < 0 {
		return
	}
	s := grow(m.times[name], rank)
	s[rank] += d
	m.times[name] = s
}

// Observe records a duration in the named histogram of one rank.
func (m *Metrics) Observe(rank int, name string, d sim.Time) {
	if m == nil || rank < 0 {
		return
	}
	hs := m.hists[name]
	for len(hs) <= rank {
		hs = append(hs, &Hist{})
	}
	m.hists[name] = hs
	hs[rank].Observe(d)
}

// MaxGauge raises the named high-water mark of one rank to v.
func (m *Metrics) MaxGauge(rank int, name string, v int64) {
	if m == nil || rank < 0 {
		return
	}
	s := grow(m.gauges[name], rank)
	if v > s[rank] {
		s[rank] = v
	}
	m.gauges[name] = s
}

// LinkBusy accumulates NIC occupancy for one node.
func (m *Metrics) LinkBusy(node int, d sim.Time) {
	if m == nil || node < 0 {
		return
	}
	m.links = grow(m.links, node)
	m.links[node] += d
}

// Total sums a counter across ranks.
func Total(vals []int64) int64 { return sum(vals) }

// TotalTime sums a time metric across ranks.
func TotalTime(vals []sim.Time) sim.Time { return sum(vals) }

func sum[T int64 | sim.Time](vals []T) (t T) {
	for _, v := range vals {
		t += v
	}
	return t
}
