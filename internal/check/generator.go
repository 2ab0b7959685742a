package check

import (
	"math"
	"math/rand"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/transport"
)

// Generator samples random but well-formed scenarios from a seed. The same
// seed always yields the same scenario (the generator owns a private RNG
// and the scenario's own Seed is drawn from it), so any sweep failure is
// reproducible from the single integer that produced it.
//
// Distributions (see DESIGN.md §9): link rate and propagation delay are
// log-uniform — network parameters span orders of magnitude and a linear
// draw would almost never produce a slow or short path; buffers are drawn
// either in BDP multiples or as raw bytes down to the 2-MSS minimum; every
// registered CC algorithm is eligible for every flow slot, so scheme
// pairings the curated experiments never try (remy vs aurora, ...) appear
// constantly.
type Generator struct {
	rng *rand.Rand
	// Schemes is the algorithm pool flows draw from; defaults to every
	// registered scheme (cc.Names()).
	Schemes []string
}

// NewGenerator returns a generator whose draws derive entirely from seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), Schemes: cc.Names()}
}

// logUniform draws from [lo, hi) with log-uniform density.
func (g *Generator) logUniform(lo, hi float64) float64 {
	return lo * math.Exp(g.rng.Float64()*math.Log(hi/lo))
}

// Scenario draws one random scenario. Durations and rates are bounded so a
// single scenario stays cheap enough to run hundreds under the race
// detector.
func (g *Generator) Scenario() runner.Scenario {
	r := g.rng
	sc := runner.Scenario{
		Seed:     r.Int63(),
		RateBps:  g.logUniform(1.5e6, 30e6),
		BaseRTT:  g.logUniform(0.004, 0.150),
		Duration: 2 + 3*r.Float64(),
	}

	// Buffer: BDP-relative most of the time, raw bytes otherwise (which
	// exercises the 2-MSS floor and sub-BDP shallow buffers).
	if r.Float64() < 0.7 {
		sc.QueueBDP = 0.3 + 3.7*r.Float64()
	} else {
		sc.QueueBytes = 2*transport.MSS + r.Intn(200_000)
	}

	if r.Float64() < 0.4 {
		sc.LossProb = 0.02 * r.Float64()
	}
	if r.Float64() < 0.2 {
		sc.Jitter = 0.002 * r.Float64()
	}
	if r.Float64() < 0.2 {
		sc.CrossBps = 0.2 * sc.RateBps * r.Float64()
	}

	// Queue discipline: droptail mostly, RED and CoDel often enough that
	// their drop paths stay under test.
	switch p := r.Float64(); {
	case p < 0.15:
		q := sc.QueueBytes
		if q == 0 {
			// Resolve the BDP-relative buffer the same way the runner does
			// so RED's thresholds sit inside the real limit.
			q = int(float64(netem.BDPBytes(sc.RateBps, sc.BaseRTT)) * sc.QueueBDP)
			if q < 2*transport.MSS {
				q = 2 * transport.MSS
			}
		}
		sc.Discipline = &netem.RED{
			MinThresholdBytes: q / 4,
			MaxThresholdBytes: q / 2,
			MaxProb:           0.1 + 0.4*r.Float64(),
		}
	case p < 0.30:
		sc.Discipline = netem.NewCoDel()
	}

	nFlows := 1 + r.Intn(4)
	for i := 0; i < nFlows; i++ {
		spec := runner.FlowSpec{
			Scheme: g.Schemes[r.Intn(len(g.Schemes))],
			Start:  r.Float64() * sc.Duration / 3,
		}
		if r.Float64() < 0.4 {
			// Stop early: staggered departures exercise flow teardown with
			// packets still in flight.
			remain := sc.Duration - spec.Start
			spec.Duration = 0.5 + r.Float64()*math.Max(remain-0.5, 0.1)
		}
		if r.Float64() < 0.3 {
			spec.ExtraDelay = g.logUniform(0.001, 0.050)
		}
		sc.Flows = append(sc.Flows, spec)
	}
	return sc
}
