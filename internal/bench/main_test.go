package bench

import (
	"os"
	"testing"

	"repro/internal/fabric"
)

// TestMain runs every test of this package — the figure shape checks,
// TestModeEquivalenceGuardedFigures and the other byte-identity guards
// — with the payload pool poisoning each buffer as it is released, so a
// use-after-release anywhere on the data path shows up as a figure or
// data mismatch (see internal/harness/payload_test.go).
func TestMain(m *testing.M) {
	fabric.BufHook = func(b []byte, put bool) {
		if put {
			for i := range b {
				b[i] = 0xDB
			}
		}
	}
	os.Exit(m.Run())
}
