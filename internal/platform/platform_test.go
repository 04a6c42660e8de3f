package platform

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{BlueGeneP, InfiniBand, CrayXT5, CrayXE6}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q (Table II order)", i, names[i], n)
		}
	}
	if len(All()) != 4 {
		t.Error("All() should return 4 platforms")
	}
}

func TestGetAndLookup(t *testing.T) {
	if Get(InfiniBand).System != "Cluster (Fusion)" {
		t.Error("Get(ib) wrong platform")
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown platform succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("Get of unknown platform did not panic")
		}
	}()
	Get("nope")
}

func TestParamsValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.MaxRanks() < 128 {
			t.Errorf("%s: MaxRanks %d too small for the scaling sweeps", p.Name, p.MaxRanks())
		}
		for _, tun := range []*Tuning{&p.Native, &p.MPI} {
			if tun.BandwidthFrac <= 0 || tun.BandwidthFrac > 1 {
				t.Errorf("%s: bandwidth fraction %v out of (0,1]", p.Name, tun.BandwidthFrac)
			}
			if tun.OpOverheadNs < 0 {
				t.Errorf("%s: negative op overhead", p.Name)
			}
		}
	}
}

func TestTableIIRows(t *testing.T) {
	rows := map[string][]string{
		BlueGeneP:  {"Intrepid", "40960", "3D Torus", "IBM MPI"},
		InfiniBand: {"Fusion", "320", "InfiniBand QDR", "MVAPICH2 1.6"},
		CrayXT5:    {"Jaguar PF", "18688", "Seastar 2+", "Cray MPI"},
		CrayXE6:    {"Hopper II", "6392", "Gemini", "Cray MPI"},
	}
	for name, wants := range rows {
		row := Get(name).TableII()
		for _, w := range wants {
			if !strings.Contains(row, w) {
				t.Errorf("%s Table II row %q missing %q", name, row, w)
			}
		}
	}
}

func TestPaperCalibrationInvariants(t *testing.T) {
	// The structural relations behind the figures.
	ib := Get(InfiniBand)
	if ib.PinPageNs <= 0 || ib.BounceThreshold != 8192 {
		t.Error("IB must model on-demand registration with an 8 KiB bounce threshold (Figure 5)")
	}
	if ib.MPI.QueueSlowdownNs <= 0 {
		t.Error("IB MPI must model the long-epoch queue defect (SectionVII.A)")
	}
	if ib.Native.PrepinAlloc != true || ib.MPI.PrepinAlloc != false {
		t.Error("IB: ARMCI pre-pins allocations, MVAPICH2 does not (Figure 5)")
	}
	xt := Get(CrayXT5)
	if xt.MPI.LargeFrac <= 0 || xt.MPI.LargeFrac > 0.6 {
		t.Error("XT MPI must lose ~half the bandwidth on large transfers (Figure 3)")
	}
	xe := Get(CrayXE6)
	if xe.Native.BandwidthFrac >= xe.MPI.BandwidthFrac {
		t.Error("XE native must be the under-tuned development release (Figure 3)")
	}
	if xe.Native.ScalePenaltyNs <= 0 {
		t.Error("XE native must degrade with scale (Figure 6)")
	}
	bgp := Get(BlueGeneP)
	if bgp.CopyRate > 2e9 {
		t.Error("BG/P packing must be slow (SectionVII.A: slow cores impede data packing)")
	}
	if ib.Native.BandwidthFrac <= ib.MPI.BandwidthFrac {
		t.Error("IB native must out-bandwidth MPI")
	}
}
