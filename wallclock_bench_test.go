package repro

// The wall-clock suite: host-time cost of the harness itself, as
// opposed to the virtual-time results of bench_test.go. Run with
//
//	go test -bench 'BenchmarkWallclock' -benchtime 1x .
//
// The same driver loops are the layer rows of go run ./benchmark, which
// is where the host-time trajectory is kept.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/harness"
)

// wallclockIssue runs one issue-rate benchmark: b.N operations through
// the full armci op → GMR translation → datatype → epoch → sim event
// path, reporting operations per host second.
func wallclockIssue(b *testing.B, run func(nops int) (opsDur float64, err error)) {
	b.ReportAllocs()
	sec, err := run(b.N)
	if err != nil {
		b.Fatal(err)
	}
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ops/s")
	}
}

func BenchmarkWallclockContigIssue(b *testing.B) {
	plat := harness.TestPlatform()
	wallclockIssue(b, func(nops int) (float64, error) {
		d, err := bench.WallclockContigIssue(plat, nops, 512)
		return d.Seconds(), err
	})
}

func BenchmarkWallclockStridedIssue(b *testing.B) {
	plat := harness.TestPlatform()
	wallclockIssue(b, func(nops int) (float64, error) {
		d, err := bench.WallclockStridedIssue(plat, nops, 64, 64)
		return d.Seconds(), err
	})
}

func BenchmarkWallclockIOVIssue(b *testing.B) {
	plat := harness.TestPlatform()
	wallclockIssue(b, func(nops int) (float64, error) {
		d, err := bench.WallclockIOVIssue(plat, nops, 64, 64)
		return d.Seconds(), err
	})
}

// wallclockPayload is the data-path layer row: 1 MiB contiguous
// operations, one in flight at a time, on the native runtime and on
// ARMCI-MPI. MB/s is host bytes through the payload path: the transfer
// events and the payload's copies — one for every get and for an
// ARMCI-MPI put or accumulate, which lands from its origin; two for a
// native put or accumulate, which keeps a snapshot. B/op and allocs/op
// show whether a warm operation still allocates its payload.
func wallclockPayload(b *testing.B, op bench.ContigOp) {
	const size = 1 << 20
	plat := harness.TestPlatform()
	for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI} {
		b.Run(string(impl), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			if _, err := bench.WallclockContigPayload(plat, impl, op, b.N, size); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkWallclockContigPayloadPut(b *testing.B) { wallclockPayload(b, bench.OpPut) }
func BenchmarkWallclockContigPayloadGet(b *testing.B) { wallclockPayload(b, bench.OpGet) }
func BenchmarkWallclockContigPayloadAcc(b *testing.B) { wallclockPayload(b, bench.OpAcc) }

// BenchmarkWallclockPackSubarray measures the derived-datatype
// pack/unpack kernels on the subarray shape the direct strided method
// produces: 256 segments of 128 bytes.
func BenchmarkWallclockPackSubarray(b *testing.B) {
	t := bench.WallclockPackType(256, 128)
	src := make([]byte, t.Span())
	dense := make([]byte, t.Size())
	b.ReportAllocs()
	b.SetBytes(int64(2 * t.Size()))
	b.ResetTimer()
	d := bench.WallclockPackRoundtrip(t, src, dense, b.N)
	if s := d.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "ops/s")
	}
}

// wallclockEvents measures raw scheduler throughput at a rank count.
func wallclockEvents(b *testing.B, nranks int) {
	b.ReportAllocs()
	var events int64
	var secs float64
	for i := 0; i < b.N; i++ {
		ev, d, err := bench.WallclockEvents(nranks, 400)
		if err != nil {
			b.Fatal(err)
		}
		events += ev
		secs += d.Seconds()
	}
	if secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}

func BenchmarkWallclockEvents64(b *testing.B)  { wallclockEvents(b, 64) }
func BenchmarkWallclockEvents128(b *testing.B) { wallclockEvents(b, 128) }
func BenchmarkWallclockEvents256(b *testing.B) { wallclockEvents(b, 256) }
