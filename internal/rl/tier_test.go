package rl

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// useTier is nn's test hook for its kernel selectors (internal/nn/tier.go),
// reached by linkname so that choosing a tier stays out of nn's API: it
// points them at the named tier and returns the restore func, or nil and
// the reason this machine cannot run that tier.
//
//go:linkname useTier repro/internal/nn.useTier
func useTier(name string) (restore func(), skip string)

// forEachKernel runs fn as a subtest per nn kernel tier, skipping, with the
// reason logged, a tier this machine cannot run. Subtests under it must not
// be parallel: the selectors are process-wide.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, name := range []string{"portable", "avx2", "avx512"} {
		t.Run(name, func(t *testing.T) {
			restore, skip := useTier(name)
			if restore == nil {
				t.Skip(skip)
			}
			defer restore()
			fn(t)
		})
	}
}
