package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

func TestDefaultConfigMatchesTable4(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HistoryLen != 5 {
		t.Errorf("w = %d, want 5", cfg.HistoryLen)
	}
	if cfg.Alpha != 0.025 {
		t.Errorf("alpha = %v, want 0.025", cfg.Alpha)
	}
	if cfg.MTP != 0.030 {
		t.Errorf("MTP = %v, want 30 ms", cfg.MTP)
	}
	if cfg.Gamma != 0.98 {
		t.Errorf("gamma = %v, want 0.98", cfg.Gamma)
	}
	if cfg.BatchSize != 192 {
		t.Errorf("batch = %v, want 192", cfg.BatchSize)
	}
	if cfg.C0 != 0.1 || cfg.C1 != 0.02 || cfg.C2 != 1 || cfg.C3 != 0.02 || cfg.C4 != 0.01 {
		t.Errorf("reward coefficients %v %v %v %v %v", cfg.C0, cfg.C1, cfg.C2, cfg.C3, cfg.C4)
	}
	if cfg.LearningRate != 0.001 {
		t.Errorf("lr = %v", cfg.LearningRate)
	}
	if cfg.ModelUpdateInterval != 5 || cfg.ModelUpdateSteps != 20 {
		t.Errorf("update schedule %v/%v", cfg.ModelUpdateInterval, cfg.ModelUpdateSteps)
	}
	if cfg.StateDim() != 40 {
		t.Errorf("state dim %d, want 40 (5×8)", cfg.StateDim())
	}
	if !slices.Equal(cfg.Hidden, []int{256, 128, 64}) {
		t.Errorf("hidden widths %v, want 256/128/64", cfg.Hidden)
	}
	if cfg.ReplayCap != 200000 {
		t.Errorf("replay cap %d, want 200000", cfg.ReplayCap)
	}
}

func TestActionToCwnd(t *testing.T) {
	// Eq. 3: symmetric multiplicative update.
	w := 100.0
	up := ActionToCwnd(w, 1, 0.025)
	if math.Abs(up-102.5) > 1e-9 {
		t.Fatalf("up action: %v, want 102.5", up)
	}
	down := ActionToCwnd(w, -1, 0.025)
	if math.Abs(down-100/1.025) > 1e-9 {
		t.Fatalf("down action: %v, want %v", down, 100/1.025)
	}
	if ActionToCwnd(w, 0, 0.025) != w {
		t.Fatal("zero action must not change cwnd")
	}
}

// Property: Eq. 3 is inverse-symmetric — a then -a returns to the start.
func TestActionToCwndSymmetry(t *testing.T) {
	f := func(a float64) bool {
		a = math.Mod(math.Abs(a), 1)
		w := 100.0
		w2 := ActionToCwnd(ActionToCwnd(w, a, 0.025), -a, 0.025)
		return math.Abs(w2-w) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalStateFromMTP(t *testing.T) {
	cfg := DefaultConfig()
	st := transport.MTPStats{
		Duration: 0.03, ThroughputBps: 50e6, MaxTputBps: 100e6,
		AvgRTT: 0.045, MinRTT: 0.030,
		CwndPkts: 125, InflightPkts: 100, PacingBps: 55e6,
		LostBytes: 1500 * 10,
	}
	ls := localStateFromMTP(cfg, st)
	if math.Abs(ls.TputRatio-0.5) > 1e-9 {
		t.Errorf("TputRatio %v", ls.TputRatio)
	}
	if math.Abs(ls.MaxTput-1.0) > 1e-9 {
		t.Errorf("MaxTput %v (scaled by 100 Mbps)", ls.MaxTput)
	}
	if math.Abs(ls.LatRatio-1.5) > 1e-9 {
		t.Errorf("LatRatio %v", ls.LatRatio)
	}
	if math.Abs(ls.MinLat-0.3) > 1e-9 {
		t.Errorf("MinLat %v (scaled by 100 ms)", ls.MinLat)
	}
	// RelCwnd = cwndBits / (maxTput × minLat) = 125*1500*8/(1e8*0.03) = 0.5
	if math.Abs(ls.RelCwnd-0.5) > 1e-9 {
		t.Errorf("RelCwnd %v", ls.RelCwnd)
	}
	if math.Abs(ls.InflightRatio-0.8) > 1e-9 {
		t.Errorf("InflightRatio %v", ls.InflightRatio)
	}
	if math.Abs(ls.PacingRatio-0.55) > 1e-9 {
		t.Errorf("PacingRatio %v", ls.PacingRatio)
	}
	// LossRatio = 10*1500*8/0.03 / 1e8 = 0.04
	if math.Abs(ls.LossRatio-0.04) > 1e-9 {
		t.Errorf("LossRatio %v", ls.LossRatio)
	}
	if len(ls.Vector()) != LocalFeatureDim {
		t.Fatalf("vector dim %d", len(ls.Vector()))
	}
}

func TestStateBlockStacking(t *testing.T) {
	cfg := DefaultConfig()
	sb := NewStateBlock(cfg)
	in := sb.Input()
	if len(in) != cfg.StateDim() {
		t.Fatalf("empty input dim %d", len(in))
	}
	for _, v := range in {
		if v != 0 {
			t.Fatal("empty history should zero-pad")
		}
	}
	for i := 0; i < 7; i++ {
		sb.Push(LocalState{TputRatio: float64(i)})
	}
	if len(sb.History()) != cfg.HistoryLen {
		t.Fatalf("history kept %d frames, want %d", len(sb.History()), cfg.HistoryLen)
	}
	in = sb.Input()
	// Newest first: frame 0 is the state pushed last (TputRatio 6).
	if in[0] != 6 {
		t.Fatalf("newest frame first: in[0] = %v, want 6", in[0])
	}
	if in[LocalFeatureDim] != 5 {
		t.Fatalf("second frame: %v, want 5", in[LocalFeatureDim])
	}
	if sb.Latest().TputRatio != 6 {
		t.Fatalf("Latest %v", sb.Latest().TputRatio)
	}
}

func TestGlobalStateVector(t *testing.T) {
	cfg := DefaultConfig()
	g := GlobalState{
		OvrTput: 90e6, MinTput: 40e6, MaxTput: 50e6,
		AvgLat: 0.045, MinCwnd: 100, MaxCwnd: 150, AvgCwnd: 125,
		LossRatio: 0.01, NumFlows: 2,
		BaseOWD: 0.015, BufBytes: 375000, Bandwidth: 100e6,
	}
	v := g.Vector(cfg)
	if len(v) != GlobalFeatureDim {
		t.Fatalf("global dim %d, want %d", len(v), GlobalFeatureDim)
	}
	if math.Abs(v[0]-0.9) > 1e-9 {
		t.Errorf("normalized overall throughput %v", v[0])
	}
	if math.Abs(v[3]-1.5) > 1e-9 {
		t.Errorf("normalized latency %v, want 1.5 (45ms/30ms RTT)", v[3])
	}
	if math.Abs(v[8]-0.2) > 1e-9 {
		t.Errorf("numFlows feature %v", v[8])
	}
	// Degenerate global state must not produce NaN/Inf.
	var zero GlobalState
	for i, x := range zero.Vector(cfg) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("zero global state feature %d = %v", i, x)
		}
	}
}
