package armcimpi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/armci"
	"repro/internal/mpi"
)

// FuzzStridedSegments holds the strided compile, which expands a
// descriptor straight into the runtime's segment list, to the path it
// replaced: the one-entry I/O vector s.ToGIOV() through compileIOV.
// For every descriptor the bytes decode to (stride levels 0-3, local
// and remote strides, offsets, a remote base in or past the GMR, a
// local buffer that is or is not global memory) and every class, the
// segment list must equal orient's, in order, and for every non-direct
// method both compiles must fail with the same error or build the same
// plan. Corpus: testdata/fuzz/FuzzStridedSegments.
func FuzzStridedSegments(f *testing.F) {
	f.Add([]byte{0, 15})
	f.Add([]byte{1, 7, 3, 0, 5, 9, 11})
	f.Add([]byte{0x0b, 3, 2, 4, 3, 1, 2, 7, 0, 5, 1, 6, 8, 13})
	f.Add([]byte{0x06, 31, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const winBytes = 16 << 10
		run(t, 2, DefaultOptions(), func(rt *Runtime) {
			addrs, err := rt.Malloc(winBytes)
			must(t, err)
			if rt.Rank() == 0 {
				checkStridedCompile(t, rt, data, addrs, rt.MallocLocal(winBytes), winBytes)
			}
			rt.Barrier()
			must(t, rt.Free(addrs[rt.Rank()]))
		})
	})
}

// checkStridedCompile decodes data into a strided descriptor between
// rank 0 and rank 1's slice of the GMR at addrs and compares the two
// compiles of it.
func checkStridedCompile(t *testing.T, rt *Runtime, data []byte, addrs []armci.Addr, buf armci.Addr, winBytes int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	sl := flags % 4
	count := []int{1 + next()%48}
	for i := 0; i < sl; i++ {
		count = append(count, 1+next()%5)
	}
	strides := func() []int {
		st, span := []int{}, count[0]
		for i := 0; i < sl; i++ {
			st = append(st, span+next()%24)
			span = st[i] * count[i+1]
		}
		return st
	}
	lStride, rStride := strides(), strides()
	local, remote := buf.Add(next()%64), addrs[1].Add(next()%64)
	if flags&4 != 0 {
		remote = addrs[1].Add(winBytes + next()%64) // past every GMR
	}
	if flags&8 != 0 {
		local = addrs[0].Add(next() % 64) // global memory: staged
	}
	for _, class := range []OpClass{ClassGet, ClassPut, ClassAcc} {
		s := &armci.Strided{Src: local, Dst: remote, SrcStride: lStride, DstStride: rStride, Count: count}
		if class == ClassGet {
			s.Src, s.Dst = s.Dst, s.Src
			s.SrcStride, s.DstStride = s.DstStride, s.SrcStride
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded an invalid descriptor: %v", err)
		}
		want := orient(nil, []armci.GIOV{s.ToGIOV()}, class)
		if got := stridedSegs(nil, class, s); !slices.Equal(got, want) {
			t.Fatalf("class %d: segments %v, want %v", class, got, want)
		}
		for _, m := range []Method{MethodIOVDirect, MethodBatched, MethodConservative, MethodAuto} {
			rtd := routed{dec: RouteDecision{Route: RouteRMA, Method: m}, bytes: s.TotalBytes()}
			got, gotErr := rt.compileStrided(class, 1, s, rtd)
			old, oldErr := rt.compileIOV(class, 1, []armci.GIOV{s.ToGIOV()}, remote.Rank, rtd)
			if fmt.Sprint(gotErr) != fmt.Sprint(oldErr) {
				t.Fatalf("class %d, %v: compile error %v, want %v", class, m, gotErr, oldErr)
			}
			if diff := planDiff(&got, &old); diff != "" {
				t.Fatalf("class %d, %v: plans differ in %s", class, m, diff)
			}
			rt.reclaim(&got)
			rt.reclaim(&old)
		}
	}
}

// planDiff names the first field in which two compiled plans differ,
// datatypes compared by layout.
func planDiff(a, b *plan) string {
	switch {
	case a.class != b.class || a.scale != b.scale || a.kind != b.kind:
		return "class, scale or kind"
	case a.dec != b.dec || a.stageBytes != b.stageBytes:
		return "route"
	case a.g != b.g || a.gr != b.gr || a.base != b.base || a.batch != b.batch:
		return "target"
	case a.local != b.local || a.span != b.span || a.disp != b.disp:
		return "local view or displacement"
	case !slices.Equal(a.segs, b.segs):
		return "segments"
	case !sameLayout(a.ltype, b.ltype):
		return "local datatype"
	case !sameLayout(a.rtype, b.rtype):
		return "remote datatype"
	}
	return ""
}

func sameLayout(a, b mpi.Datatype) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Size() == b.Size() && a.Span() == b.Span() && a.Contig() == b.Contig() &&
		slices.Equal(mpi.Flatten(a).Segs, mpi.Flatten(b).Segs)
}
