package main

import "sort"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; the smoke test holds the two
// together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: how much worse the median may get
}

// endToEnd is what a user regenerating the paper's figures pays, taken
// with tracing off. Each is the median over the run's repetitions. The
// eighth end-to-end number of ISSUE 11, checks_failed out of
// checks_total, is the result line's failed and attempted.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.15},
	{"cpu_s", "s", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"mallocs_k", "kobjects", "lower", 0.01},
	{"alloc_mb", "MB", "lower", 0.01},
	{"virt_cost_geomean", "1", "lower", 0.01},
}

// layerMetrics is every per-layer metric of the traced run, in report
// order. A metric the workload does not measure (a driver that isolates
// another workload's layer, recorder counts where the config has no Obs
// field) reads 0 and prints as n/a. Host CPU attributed by the profile
// is in "cpu-s", virtual time in "virt_ns", so neither is mistaken for
// a wall-clock reading.
var layerMetrics = func() []metricDef {
	var m []metricDef
	lower := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{name: n, unit: unit, better: "lower"})
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{name: n, unit: unit, better: "higher"})
		}
	}
	// Time busy, from the CPU profile of one extra repetition.
	for _, l := range layers {
		lower("cpu-s", l+".cpu_s", l+".self_s")
	}
	lower("cpu-s", "go.gc_s", "go.sched_s", "go.other_s")
	// Host counters, free with every repetition.
	lower("count", "go.gc_cycles")
	lower("ms", "go.gc_pause_ms")
	lower("MB", "go.heap_sys_mb", "host.peak_rss_mb")
	// Work done, exact, from a recorder repetition.
	lower("count", "sim.parks", "fabric.msgs")
	lower("bytes", "fabric.bytes")
	lower("virt_ns", "fabric.nic_busy_ns", "fabric.nic_queued_ns")
	lower("count", "mpi.epochs")
	lower("virt_ns", "mpi.lock_wait_ns")
	lower("bytes", "mpi.bytes_contig", "mpi.bytes_packed", "mpi.bytes_shm")
	lower("count", "armcimpi.plan_exec", "armcimpi.plan_segs", "armcimpi.gmr_allocs",
		"armcimpi.route_self_ops", "armcimpi.route_node_ops", "armcimpi.route_rma_ops", "armcimpi.route_staged_ops")
	lower("virt_ns", "virt.phase_ns.lock_wait", "virt.phase_ns.epoch_wait", "virt.phase_ns.dt_pack",
		"virt.phase_ns.shm_copy", "virt.phase_ns.wire_queue", "virt.phase_ns.wire_xfer",
		"virt.phase_ns.target_queue", "virt.phase_ns.target_proc", "virt.phase_ns.other",
		"virt.crit_path_ns", "virt.makespan_ns")
	// The layer's profiled CPU divided by its count.
	lower("ns/park", "sim.host_ns_per_park")
	lower("ns/msg", "fabric.host_ns_per_msg")
	lower("ns/epoch", "mpi.host_ns_per_epoch")
	lower("ns/plan", "armcimpi.host_ns_per_plan")
	// Observability tax: wall_s with the recorder over wall_s without.
	lower("ratio", "obs.overhead.metrics", "obs.overhead.profile", "obs.overhead.critpath")
	// Drivers.
	lower("ns/op", "armcimpi.put_issue_ns", "native.put_issue_ns", "dataserver.put_issue_ns",
		"dartmpi.put_issue_ns", "armcimpi.get_issue_ns", "armcimpi.acc_issue_ns",
		"armcimpi.strided_issue_ns", "armcimpi.iov_issue_ns")
	higher("MB/s", "mpi.pack_mb_per_s")
	lower("ns/op", "conflicttree.insert_ns", "armci.to_giov_ns", "sim.elapse_ns")
	lower("ns/rank", "mpi.allgather_ns_per_rank.n128", "mpi.allgather_ns_per_rank.n512",
		"harness.construct_ns_per_rank.n128", "harness.construct_ns_per_rank.n512")
	lower("ns/owner", "ga.fanout_ns_per_owner")
	lower("ns/rank", "harness.construct_ns_per_rank.n4096")
	higher("1/s", "sim.exchange_events_per_s.shards1", "sim.exchange_events_per_s.shardsN")
	higher("ratio", "sim.shard_speedup")
	// The run itself.
	lower("ratio", "host.trace_overhead")
	lower("ns", "host.calib_ns")
	return m
}()

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
