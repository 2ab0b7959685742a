package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// randObs draws one seeded FlowObs for the golden sweep. This generator is
// frozen: the pinned digest below was captured from the pre-refactor
// core.Reward over exactly these inputs, so any edit here invalidates the
// golden.
func randObs(r *rand.Rand, link LinkInfo) FlowObs {
	share := r.Float64() * 1.5 * link.Bandwidth
	w := 1 + r.Intn(6)
	hist := make([]float64, w)
	for i := range hist {
		hist[i] = share * (0.5 + r.Float64())
	}
	f := FlowObs{
		TputBps:     share,
		TputHistory: hist,
		AvgLat:      2 * link.BaseOWD * (0.8 + 2*r.Float64()),
		PacingBps:   share * (0.8 + 0.4*r.Float64()),
	}
	if r.Float64() < 0.3 {
		f.LossBps = share * 0.2 * r.Float64()
	}
	switch r.Intn(12) {
	case 0:
		f.TputBps = 0
	case 1:
		f.LossBps = 0
	case 2:
		f.TputBps, f.LossBps = 0, 0
	case 3:
		f.TputHistory = nil
	}
	return f
}

// rewardSweepDigest folds eval's components over 500 seeded scenarios
// (varying Beta, bandwidth, base delay, flow count, plus zero-bandwidth and
// zero-OWD edge seeds) into an FNV-64a digest of the raw IEEE-754 bits.
func rewardSweepDigest(eval func(Config, []FlowObs, LinkInfo) RewardComponents) uint64 {
	h := fnv.New64a()
	f64 := func(v float64) {
		u := math.Float64bits(v)
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Beta = 0.4 * r.Float64()
		link := LinkInfo{
			Bandwidth: math.Exp(r.Float64()*8) * 1e6,
			BaseOWD:   0.001 + 0.1*r.Float64(),
		}
		switch seed % 25 {
		case 7:
			link.Bandwidth = 0
		case 13:
			link.BaseOWD = 0
		}
		n := r.Intn(7)
		flows := make([]FlowObs, n)
		for i := range flows {
			flows[i] = randObs(r, link)
		}
		rc := eval(cfg, flows, link)
		f64(rc.Thr)
		f64(rc.Lat)
		f64(rc.Loss)
		f64(rc.Fair)
		f64(rc.Stab)
		f64(rc.Total)
	}
	return h.Sum64()
}

// goldenRewardSweep is the digest of the pre-refactor core.Reward over the
// sweep above, captured at commit 18e70a6 before the strategy interface was
// extracted. Both the function and PaperStrategy must stay bitwise faithful
// to it.
const goldenRewardSweep uint64 = 0xf8928dfbf58a1c13

func TestRewardGoldenDigest(t *testing.T) {
	if got := rewardSweepDigest(Reward); got != goldenRewardSweep {
		t.Fatalf("core.Reward sweep digest %#x, want pre-refactor golden %#x", got, goldenRewardSweep)
	}
}

func TestPaperStrategyGoldenDigest(t *testing.T) {
	if got := rewardSweepDigest(PaperStrategy{}.Evaluate); got != goldenRewardSweep {
		t.Fatalf("PaperStrategy sweep digest %#x, want pre-refactor golden %#x", got, goldenRewardSweep)
	}
}

func TestNewRewardStrategyNames(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "paper"},
		{"paper", "paper"},
		{"aurora", "aurora"},
		{"maxmin", "maxmin"},
		{"alpha", "alpha:1"},
		{"alpha:1", "alpha:1"},
		{"alpha:0", "alpha:0"},
		{"alpha:2.5", "alpha:2.5"},
	}
	for _, c := range cases {
		s, err := NewRewardStrategy(c.in)
		if err != nil {
			t.Fatalf("NewRewardStrategy(%q): %v", c.in, err)
		}
		if s.Name() != c.want {
			t.Errorf("NewRewardStrategy(%q).Name() = %q, want %q", c.in, s.Name(), c.want)
		}
		// Canonical names must round-trip: checkpoints store Name() and
		// resolve it back at load time.
		s2, err := NewRewardStrategy(s.Name())
		if err != nil {
			t.Fatalf("round-trip %q: %v", s.Name(), err)
		}
		if s2.Name() != s.Name() {
			t.Errorf("round-trip %q -> %q", s.Name(), s2.Name())
		}
	}
}

func TestNewRewardStrategyRejects(t *testing.T) {
	for _, bad := range []string{
		"bbr", "paper:1", "aurora:2", "maxmin:x",
		"alpha:", "alpha:-1", "alpha:NaN", "alpha:+Inf", "alpha:two",
	} {
		if _, err := NewRewardStrategy(bad); err == nil {
			t.Errorf("NewRewardStrategy(%q) accepted, want error", bad)
		}
	}
}

func TestMustRewardStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRewardStrategy on unknown name did not panic")
		}
	}()
	MustRewardStrategy("no-such-strategy")
}

func TestRewardStrategyNamesResolve(t *testing.T) {
	for _, name := range RewardStrategyNames() {
		if _, err := NewRewardStrategy(name); err != nil {
			t.Errorf("listed strategy %q does not resolve: %v", name, err)
		}
	}
}

func TestAuroraStrategyShape(t *testing.T) {
	cfg := DefaultConfig()
	link := LinkInfo{Bandwidth: 100e6, BaseOWD: 0.015}
	s := AuroraStrategy{}

	// No explicit fairness/stability terms.
	rc := s.Evaluate(cfg, []FlowObs{flatObs(90e6, 5), flatObs(10e6, 5)}, link)
	if rc.Fair != 0 || rc.Stab != 0 {
		t.Fatalf("aurora has fairness/stability terms: %+v", rc)
	}
	// Total matches the documented linear form.
	want := clampTotal(0.01 * (10*rc.Thr/2 - 5*rc.Lat - 20*rc.Loss))
	if rc.Total != want {
		t.Fatalf("aurora Total %v, want %v", rc.Total, want)
	}
	// Throughput-monotone.
	lo := s.Evaluate(cfg, []FlowObs{flatObs(30e6, 5)}, link)
	hi := s.Evaluate(cfg, []FlowObs{flatObs(60e6, 5)}, link)
	if hi.Total <= lo.Total {
		t.Fatalf("aurora not throughput-monotone: %v vs %v", hi.Total, lo.Total)
	}
	// Loss punishes hard (the 20x coefficient).
	lossy := flatObs(60e6, 5)
	lossy.LossBps = 30e6
	if rl := s.Evaluate(cfg, []FlowObs{lossy}, link); rl.Total >= hi.Total {
		t.Fatalf("aurora loss not penalized: %v vs %v", rl.Total, hi.Total)
	}
}

func TestMaxMinStrategyShortfall(t *testing.T) {
	cfg := DefaultConfig()
	link := LinkInfo{Bandwidth: 100e6, BaseOWD: 0.015}
	s := MaxMinStrategy{}

	equal := s.Evaluate(cfg, []FlowObs{flatObs(50e6, 5), flatObs(50e6, 5)}, link)
	if equal.Fair != 0 {
		t.Fatalf("equal shares have shortfall %v", equal.Fair)
	}
	starved := s.Evaluate(cfg, []FlowObs{flatObs(90e6, 5), flatObs(10e6, 5)}, link)
	// Fair share 50e6, worst 10e6 -> shortfall 0.8.
	if math.Abs(starved.Fair-0.8) > 1e-12 {
		t.Fatalf("shortfall %v, want 0.8", starved.Fair)
	}
	if starved.Total >= equal.Total {
		t.Fatalf("starving a flow not penalized: %v >= %v", starved.Total, equal.Total)
	}
	// The shortfall only looks at the worst flow: improving the best flow
	// alone does not reduce the penalty.
	richer := s.Evaluate(cfg, []FlowObs{flatObs(95e6, 5), flatObs(10e6, 5)}, link)
	if richer.Fair != starved.Fair {
		t.Fatalf("best-flow change moved the shortfall: %v vs %v", richer.Fair, starved.Fair)
	}
}

func TestAlphaFairSpectrum(t *testing.T) {
	cfg := DefaultConfig()
	link := LinkInfo{Bandwidth: 100e6, BaseOWD: 0.015}
	equal := []FlowObs{flatObs(60e6, 5), flatObs(60e6, 5)}
	unequalBig := []FlowObs{flatObs(95e6, 5), flatObs(10e6, 5)} // less aggregate, very skewed

	// α = 0 is throughput maximization: welfare equals utilization, no
	// fairness preference, so the bigger aggregate wins. Aggregates kept
	// below the clamp so the ordering is visible in Total.
	a0 := AlphaFairStrategy{Alpha: 0}
	smallEqual := []FlowObs{flatObs(35e6, 5), flatObs(35e6, 5)}
	smallSkewed := []FlowObs{flatObs(70e6, 5), flatObs(10e6, 5)}
	e0, u0 := a0.Evaluate(cfg, smallEqual, link), a0.Evaluate(cfg, smallSkewed, link)
	if e0.Fair != 0 || u0.Fair != 0 {
		t.Fatalf("alpha:0 has a fairness term: %v %v", e0.Fair, u0.Fair)
	}
	if u0.Total <= e0.Total {
		t.Fatalf("alpha:0 did not prefer the larger aggregate: %v vs %v", u0.Total, e0.Total)
	}

	// α = 1 (proportional fairness): positive Jensen gap for unequal shares.
	a1 := AlphaFairStrategy{Alpha: 1}
	if g := a1.Evaluate(cfg, unequalBig, link).Fair; g <= 0 {
		t.Fatalf("alpha:1 Jensen gap %v for unequal shares", g)
	}
	if g := a1.Evaluate(cfg, equal, link).Fair; g > 1e-12 {
		t.Fatalf("alpha:1 Jensen gap %v for equal shares", g)
	}

	// Large α approaches max-min: the equal allocation beats the bigger but
	// skewed one.
	a8 := AlphaFairStrategy{Alpha: 8}
	if e8, u8 := a8.Evaluate(cfg, equal, link), a8.Evaluate(cfg, unequalBig, link); u8.Total >= e8.Total {
		t.Fatalf("alpha:8 did not prefer equality: %v vs %v", u8.Total, e8.Total)
	}
}

func TestAlphaFairShareFloor(t *testing.T) {
	cfg := DefaultConfig()
	link := LinkInfo{Bandwidth: 100e6, BaseOWD: 0.015}
	// A completely silent flow must not drive welfare to -Inf.
	flows := []FlowObs{flatObs(99e6, 5), {TputBps: 0, AvgLat: 0.030}}
	for _, a := range []float64{1, 2, 8} {
		rc := AlphaFairStrategy{Alpha: a}.Evaluate(cfg, flows, link)
		for _, v := range []float64{rc.Thr, rc.Lat, rc.Loss, rc.Fair, rc.Stab, rc.Total} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("alpha:%v produced non-finite component: %+v", a, rc)
			}
		}
		if rc.Total != -RewardBound {
			// A starved flow under a strongly fairness-seeking objective
			// should be near the bottom of the reward range; at minimum it
			// must respect the clamp.
			if rc.Total < -RewardBound || rc.Total > RewardBound {
				t.Fatalf("alpha:%v Total %v escaped the bound", a, rc.Total)
			}
		}
	}
}

func TestDistillDeltaMapping(t *testing.T) {
	const base = 0.08
	cases := []struct {
		s    RewardStrategy
		want float64
	}{
		{PaperStrategy{}, base},
		{AuroraStrategy{}, base * 0.5},
		{MaxMinStrategy{}, base * 2},
		{AlphaFairStrategy{Alpha: 0}, base * 0.5},
		{AlphaFairStrategy{Alpha: 1}, base},
		{AlphaFairStrategy{Alpha: 5}, base * 2},
		{AlphaFairStrategy{Alpha: 100}, base * 2}, // capped
	}
	for _, c := range cases {
		if got := DistillDelta(c.s, base); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("DistillDelta(%s) = %v, want %v", c.s.Name(), got, c.want)
		}
	}
}

func TestDistillPaperBitIdentical(t *testing.T) {
	// The paper strategy must leave distillation untouched: same options,
	// same weights, bit for bit.
	opts := DistillOptions{Samples: 200, Epochs: 2, Batch: 32, LR: 0.003, Seed: 3}
	cfg := DefaultConfig()
	cfg.Hidden = []int{8}
	cfgPaper := cfg
	cfgPaper.Reward = "paper"
	a, lossA := DistillPolicy(cfg, opts)
	b, lossB := DistillPolicy(cfgPaper, opts)
	if lossA != lossB {
		t.Fatalf("paper distill loss differs: %v vs %v", lossA, lossB)
	}
	flat := func(m *nn.MLP) []float64 {
		var out []float64
		for _, l := range m.Layers {
			out = append(out, l.W...)
			out = append(out, l.B...)
		}
		return out
	}
	wa, wb := flat(a), flat(b)
	if len(wa) != len(wb) {
		t.Fatalf("weight count differs: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weight %d differs: %v vs %v", i, wa[i], wb[i])
		}
	}
	// A non-paper strategy changes the target function, so the fit differs.
	cfgMaxmin := cfg
	cfgMaxmin.Reward = "maxmin"
	c, _ := DistillPolicy(cfgMaxmin, opts)
	diff := false
	for i, w := range flat(c) {
		if w != wa[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("maxmin distillation produced identical weights to paper")
	}
}
