package bench

import (
	"repro/internal/armcimpi"
	"repro/internal/harness"
)

// Tweak, when non-nil, is applied to every runtime Options value the
// bench harnesses construct. cmd/armci-bench installs it to expose
// -batch, -strided-method, and -iov-method without threading flag
// plumbing through every figure. Figures that set ablation-specific
// fields (NoShm, UseMPI3, ...) do so after the hook runs, so a sweep's
// own axis always wins over the command-line override.
//
// Set it before the first generator call and not again: the jobs of a
// figure sweep (DESIGN.md, "Figure sweeps") call it concurrently, so
// the hook itself must write nothing but the Options it is handed.
var Tweak func(*armcimpi.Options)

// ExtraImpls, when non-empty, adds these runtimes as extra series to
// the Figure 3 contiguous-bandwidth comparison (beyond the paper's
// native vs ARMCI-MPI pair). cmd/armci-bench installs it from the
// -runtime flag; duplicates of the built-in pair are skipped. Empty by
// default, so the guarded BENCH artifacts are unaffected. Like Tweak it
// is set before the first generator call and read-only afterwards.
var ExtraImpls []harness.Impl

// benchOptions is DefaultOptions plus the process-wide Tweak hook.
func benchOptions() armcimpi.Options {
	opt := armcimpi.DefaultOptions()
	if Tweak != nil {
		Tweak(&opt)
	}
	return opt
}
