// Package platform defines the four experimental platforms of the
// paper's Table II, with fabric hardware parameters and per-runtime
// tuning calibrated so that the published bandwidth and scaling curve
// shapes (Figures 3-6) are reproduced by the structural cost model.
//
// Hardware numbers are first-order public characteristics of the real
// machines (link bandwidths, latencies, core speeds); tuning factors
// encode the software-quality differences the paper reports (e.g. the
// aggressively tuned native ARMCI on InfiniBand, the under-tuned
// development-release native ARMCI on the Cray XE6 Gemini network, the
// MVAPICH2 batched-epoch queue slowdown).
package platform

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
)

// Tuning captures software-stack efficiency of one runtime (native
// ARMCI or the MPI library) on one platform.
type Tuning struct {
	// BandwidthFrac is the fraction of the NIC link bandwidth the
	// runtime's large-transfer path achieves (1.0 = perfectly tuned).
	BandwidthFrac float64
	// LargeFrac, when nonzero, replaces BandwidthFrac for transfers of
	// at least LargeAt bytes — runtimes whose protocol switch is
	// poorly tuned lose bandwidth only beyond a message size (the
	// Cray XT5 MPI behaviour in Figure 3).
	LargeFrac float64
	LargeAt   int
	// OpOverheadNs is the per-operation software overhead at the origin
	// (descriptor setup, protocol selection).
	OpOverheadNs float64
	// AccumRate overrides the platform's target-side accumulate
	// processing rate (B/s); 0 means use the fabric default.
	AccumRate float64
	// QueueSlowdownNs, when nonzero, adds QueueSlowdownNs*k to the cost
	// of the k-th operation queued in a single epoch beyond
	// QueueThreshold ops. This models the MPICH2/MVAPICH2 performance
	// defect with long passive-mode epochs reported in SectionVII.A.
	QueueSlowdownNs float64
	QueueThreshold  int
	// ScalePenaltyNs adds ScalePenaltyNs*log2(nprocs) per remote
	// operation, modeling runtimes whose target-side agents degrade at
	// scale (the XE6 development-release native ARMCI).
	ScalePenaltyNs float64
	// RmwRTTs is the number of network round trips a single
	// read-modify-write costs (native NIC atomics: 1; mutex-based
	// emulation pays its own structural cost and ignores this).
	RmwRTTs int
	// PrepinAlloc reports whether the runtime's allocator returns
	// pre-registered memory (ARMCI's pinned pools do; MVAPICH2's
	// MPI_Alloc_mem does not — Figure 5 discussion).
	PrepinAlloc bool
	// NoProgressDelayNs models an MPI library run *without* asynchronous
	// progress (SectionV.F: some implementations make it a runtime
	// option because of its cost): every target-side action waits this
	// long, on average, for the target to enter the MPI library. 0 =
	// asynchronous progress enabled (the paper's requirement).
	NoProgressDelayNs float64
}

// Platform is one Table II machine: shared hardware parameters plus
// the two runtime tunings.
type Platform struct {
	fabric.Params
	System       string // machine name from Table II
	Interconnect string
	MPIVersion   string
	TableNodes   int // node count reported in Table II
	SocketsDesc  string

	Native Tuning // best-available native ARMCI
	MPI    Tuning // vendor MPI one-sided path
}

// Names of the four platforms, in Table II order.
const (
	BlueGeneP  = "bgp"
	InfiniBand = "ib"
	CrayXT5    = "xt5"
	CrayXE6    = "xe6"
)

var registry = map[string]*Platform{
	BlueGeneP: {
		System:       "IBM Blue Gene/P (Intrepid)",
		Interconnect: "3D Torus",
		MPIVersion:   "IBM MPI",
		TableNodes:   40960,
		SocketsDesc:  "1 x 4",
		Params: fabric.Params{
			Name:            BlueGeneP,
			Nodes:           1024,
			CoresPerNode:    4,
			LatencyNs:       2750, // 3D torus one-way
			Bandwidth:       425e6,
			MsgOverhead:     600,
			LocalLatencyNs:  350,
			LocalBandwidth:  2.0e9,
			CopyRate:        1.1e9, // 850 MHz PPC450: slow packing
			Flops:           3.4e9,
			PageSize:        4096,
			PinPageNs:       0, // BG/P DMA needs no per-page pinning
			BounceThreshold: 0,
			BounceRate:      1.1e9,
			UnpinnedRate:    300e6,
			AccumRate:       500e6,
			ShmCopyRate:     3.2e9, // node-local load/store, DDR2 on PPC450
		},
		Native: Tuning{BandwidthFrac: 0.92, OpOverheadNs: 700, RmwRTTs: 1, PrepinAlloc: true},
		MPI:    Tuning{BandwidthFrac: 0.85, OpOverheadNs: 1100, AccumRate: 420e6},
	},
	InfiniBand: {
		System:       "Cluster (Fusion)",
		Interconnect: "InfiniBand QDR",
		MPIVersion:   "MVAPICH2 1.6",
		TableNodes:   320,
		SocketsDesc:  "2 x 4",
		Params: fabric.Params{
			Name:            InfiniBand,
			Nodes:           320,
			CoresPerNode:    8,
			LatencyNs:       1400,
			Bandwidth:       3.4e9,
			MsgOverhead:     250,
			LocalLatencyNs:  120,
			LocalBandwidth:  6.0e9,
			CopyRate:        4.5e9,
			Flops:           10.6e9, // 2.66 GHz Xeon, 4 flops/cycle
			PageSize:        4096,
			PinPageNs:       220000, // on-demand ibv_reg_mr is expensive
			BounceThreshold: 8192,   // MVAPICH bounce-buffer threshold (paper SectionVII.B)
			BounceRate:      2.2e9,
			UnpinnedRate:    1.2e9, // ARMCI's pipelined non-pinned path
			AccumRate:       2.6e9,
			ShmCopyRate:     18e9, // intra-socket memcpy, DDR3 Nehalem
		},
		Native: Tuning{BandwidthFrac: 0.97, OpOverheadNs: 300, AccumRate: 8e9, RmwRTTs: 1, PrepinAlloc: true},
		MPI: Tuning{
			BandwidthFrac: 0.88, OpOverheadNs: 650, AccumRate: 0.85e9,
			QueueSlowdownNs: 8, QueueThreshold: 64,
		},
	},
	CrayXT5: {
		System:       "Cray XT5 (Jaguar PF)",
		Interconnect: "Seastar 2+",
		MPIVersion:   "Cray MPI",
		TableNodes:   18688,
		SocketsDesc:  "2 x 6",
		Params: fabric.Params{
			Name:            CrayXT5,
			Nodes:           2048,
			CoresPerNode:    12,
			LatencyNs:       5600,
			Bandwidth:       2.1e9,
			MsgOverhead:     400,
			LocalLatencyNs:  150,
			LocalBandwidth:  5.5e9,
			CopyRate:        4.0e9,
			Flops:           10.4e9,
			PageSize:        4096,
			PinPageNs:       0, // Portals: memory pre-registered at job launch
			BounceThreshold: 0,
			BounceRate:      4.0e9,
			UnpinnedRate:    1.0e9,
			AccumRate:       1.6e9,
			ShmCopyRate:     10e9, // Istanbul-socket memcpy
		},
		Native: Tuning{BandwidthFrac: 0.95, OpOverheadNs: 400, RmwRTTs: 1, PrepinAlloc: true},
		// Cray MPI's portals RMA path loses half the bandwidth on large
		// transfers (paper: "beyond 32 kB ... half of the bandwidth").
		MPI: Tuning{BandwidthFrac: 0.92, LargeFrac: 0.48, LargeAt: 1 << 16, OpOverheadNs: 700, AccumRate: 1.1e9},
	},
	CrayXE6: {
		System:       "Cray XE6 (Hopper II)",
		Interconnect: "Gemini",
		MPIVersion:   "Cray MPI",
		TableNodes:   6392,
		SocketsDesc:  "2 x 12",
		Params: fabric.Params{
			Name:            CrayXE6,
			Nodes:           1024,
			CoresPerNode:    24,
			LatencyNs:       1600,
			Bandwidth:       6.0e9,
			MsgOverhead:     300,
			LocalLatencyNs:  130,
			LocalBandwidth:  7.0e9,
			CopyRate:        4.8e9,
			Flops:           8.4e9,
			PageSize:        4096,
			PinPageNs:       0, // Gemini uGNI memory registered at startup here
			BounceThreshold: 0,
			BounceRate:      4.8e9,
			UnpinnedRate:    0.9e9,
			AccumRate:       1.05e9,
			ShmCopyRate:     12e9, // Magny-Cours-socket memcpy
		},
		// The native ARMCI port for Gemini was a development release:
		// it reaches only a quarter of the link bandwidth and its
		// target-side agent degrades with scale (Figure 6: CCSD worsens,
		// (T) flattens).
		Native: Tuning{
			BandwidthFrac: 0.26, OpOverheadNs: 900, AccumRate: 0.80e9,
			ScalePenaltyNs: 6000, RmwRTTs: 1, PrepinAlloc: true,
		},
		MPI: Tuning{BandwidthFrac: 0.52, OpOverheadNs: 500, AccumRate: 1.0e9},
	},
}

// Get returns the named platform. Valid names are the exported
// constants; Get panics on an unknown name (a programming error).
func Get(name string) *Platform {
	p, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("platform: unknown platform %q", name))
	}
	return p
}

// Lookup is Get with an error instead of a panic, for CLI use.
func Lookup(name string) (*Platform, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("platform: unknown platform %q (have %v)", name, Names())
	}
	return p, nil
}

// Names lists the registered platform names in Table II order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	order := map[string]int{BlueGeneP: 0, InfiniBand: 1, CrayXT5: 2, CrayXE6: 3}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	return names
}

// All returns the platforms in Table II order.
func All() []*Platform {
	ps := make([]*Platform, 0, len(registry))
	for _, n := range Names() {
		ps = append(ps, registry[n])
	}
	return ps
}

// TableII formats the platform as its row in the paper's Table II.
func (p *Platform) TableII() string {
	mem := map[string]string{BlueGeneP: "2 GB", InfiniBand: "36 GB", CrayXT5: "16 GB", CrayXE6: "32 GB"}
	return fmt.Sprintf("%-28s %6d  %-6s %-6s %-15s %s",
		p.System, p.TableNodes, p.SocketsDesc, mem[p.Name], p.Interconnect, p.MPIVersion)
}
