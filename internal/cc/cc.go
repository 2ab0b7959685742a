// Package cc implements the congestion-control algorithms the paper
// evaluates Astraea against: classical TCP (Reno, Cubic, Vegas), BBR, the
// delay-based Copa, the online-learning Vivace (PCC), the RL-based Aurora,
// the hybrid Orca, and a Remy-style rule table. Each scheme implements
// transport.CongestionControl. A registry maps names to factories so
// experiments and the CLI can instantiate schemes uniformly.
package cc

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/transport"
)

// Factory builds a fresh congestion controller instance. Each flow needs
// its own instance because controllers carry per-flow state.
type Factory func() transport.CongestionControl

// registry maps every scheme name to its factory: the paper's roster plus
// vivace-enhanced, the tuned Vivace variant of Fig. 2. One map literal, so
// a duplicate name is a compile error.
var registry = map[string]Factory{
	"astraea": func() transport.CongestionControl { return core.NewAgent(core.DefaultConfig(), nil) },
	"aurora":  func() transport.CongestionControl { return NewAurora(nil) },
	"bbr":     func() transport.CongestionControl { return NewBBR() },
	"copa":    func() transport.CongestionControl { return NewCopa() },
	"cubic":   func() transport.CongestionControl { return NewCubic() },
	"orca":    func() transport.CongestionControl { return NewOrca(nil) },
	"remy":    func() transport.CongestionControl { return NewRemy() },
	"reno":    func() transport.CongestionControl { return NewReno() },
	"vegas":   func() transport.CongestionControl { return NewVegas() },
	"vivace":  func() transport.CongestionControl { return NewVivace(DefaultVivaceConfig()) },
	"vivace-enhanced": func() transport.CongestionControl {
		cfg := DefaultVivaceConfig()
		cfg.Theta0 *= 12 // the paper's Fig. 2 "enhanced" variant: larger initial conversion factor
		return NewVivace(cfg)
	},
}

// New instantiates the named scheme.
func New(name string) (transport.CongestionControl, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cc: unknown scheme %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New for callers holding a known-good name (experiments, tests).
func MustNew(name string) transport.CongestionControl {
	c, err := New(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names lists registered schemes, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
