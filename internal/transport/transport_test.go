package transport

import (
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// recorderCC captures every event for assertions; it never changes the
// window unless configured.
type recorderCC struct {
	acks     []AckEvent
	losses   []LossEvent
	mtps     []MTPStats
	mtpEvery float64
	fixCwnd  float64
	pacing   float64
}

func (r *recorderCC) Name() string { return "recorder" }
func (r *recorderCC) Init(f *Flow) {
	// Pacing must be armed before parking the window at huge values, or
	// the first trySend bursts unpaced (the rate-based schemes follow the
	// same order).
	if r.pacing > 0 {
		f.SetPacingBps(r.pacing)
	}
	if r.fixCwnd > 0 {
		f.SetCwnd(r.fixCwnd)
	}
	if r.mtpEvery > 0 {
		f.ScheduleMTP(r.mtpEvery)
	}
}
func (r *recorderCC) OnAck(f *Flow, e AckEvent)   { r.acks = append(r.acks, e) }
func (r *recorderCC) OnLoss(f *Flow, e LossEvent) { r.losses = append(r.losses, e) }
func (r *recorderCC) OnMTP(f *Flow, st MTPStats) {
	r.mtps = append(r.mtps, st)
	f.ScheduleMTP(r.mtpEvery)
}

func testbed(seed int64, rate float64, rtt float64, queue int) (*sim.Simulator, *netem.Dumbbell) {
	s := sim.New(seed)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{RateBps: rate, BaseRTT: rtt, QueueBytes: queue})
	return s, d
}

func TestAckClockAndRTT(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 10}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(1)
	if len(cc.acks) == 0 {
		t.Fatal("no acks")
	}
	first := cc.acks[0]
	// RTT = prop 30ms + serialization 0.12ms (1500B @100Mbps).
	if first.RTT < 0.030 || first.RTT > 0.032 {
		t.Fatalf("first RTT %v", first.RTT)
	}
	if f.MinRTT() < 0.030 || f.MinRTT() > 0.032 {
		t.Fatalf("MinRTT %v", f.MinRTT())
	}
	if f.SRTT() <= 0 {
		t.Fatal("SRTT not tracked")
	}
}

func TestCwndLimitsInflight(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 7}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(0.029) // before any ack returns
	if f.Inflight() != 7 {
		t.Fatalf("inflight %d, want 7 (cwnd-limited)", f.Inflight())
	}
}

func TestThroughputMatchesCwndOverRTT(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 100, mtpEvery: 0.1}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(5)
	// Expected rate = cwnd*MSS*8/RTT = 100*1500*8/0.030 = 40 Mbps.
	rate := float64(f.DeliveredBytes) * 8 / 5
	if rate < 36e6 || rate > 42e6 {
		t.Fatalf("rate %.1f Mbps, want ≈40", rate/1e6)
	}
}

func TestBottleneckCapsThroughput(t *testing.T) {
	s, d := testbed(1, 10e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 10000, mtpEvery: 0.1}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(5)
	rate := float64(f.DeliveredBytes) * 8 / 5
	if rate > 10.2e6 {
		t.Fatalf("rate %.1f Mbps exceeds 10 Mbps link", rate/1e6)
	}
	if rate < 9e6 {
		t.Fatalf("rate %.1f Mbps underuses 10 Mbps link with giant cwnd", rate/1e6)
	}
}

func TestPacingSpreadsPackets(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	// Pace at 12 Mbps = 1 packet per ms with an effectively-infinite cwnd.
	cc := &recorderCC{fixCwnd: 1e9, pacing: 12e6}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(1.0)
	sent := f.SentBytes / MSS
	if sent < 950 || sent > 1050 {
		t.Fatalf("paced sender sent %d packets in 1s, want ≈1000", sent)
	}
}

func TestLossDetectionByReordering(t *testing.T) {
	// Tiny queue forces tail drops; dup-ack style detection should report
	// them without waiting for the RTO.
	s, d := testbed(1, 10e6, 0.030, 6000)
	cc := &recorderCC{fixCwnd: 50}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(2)
	if len(cc.losses) == 0 {
		t.Fatal("no loss events despite overflowing queue")
	}
	for _, l := range cc.losses {
		if l.Timeout {
			t.Fatal("losses should come from reordering detection, not RTO")
		}
	}
	if f.LostPackets == 0 || f.LostBytes == 0 {
		t.Fatal("loss counters not updated")
	}
}

func TestRTOFiresWhenLinkDies(t *testing.T) {
	s := sim.New(1)
	// 100% loss: no packet survives.
	d := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps: 10e6, BaseRTT: 0.030, QueueBytes: 1 << 20, LossProb: 1.0,
	})
	cc := &recorderCC{fixCwnd: 10}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(5)
	if len(cc.losses) == 0 {
		t.Fatal("RTO never fired on a dead link")
	}
	if !cc.losses[0].Timeout {
		t.Fatal("first loss should be an RTO")
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	s := sim.New(1)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps: 10e6, BaseRTT: 0.030, QueueBytes: 1 << 20, LossProb: 1.0,
	})
	cc := &recorderCC{fixCwnd: 4}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(16)
	if len(cc.losses) < 3 {
		t.Fatalf("want ≥3 RTOs, got %d", len(cc.losses))
	}
	gap1 := cc.losses[1].Now - cc.losses[0].Now
	gap2 := cc.losses[2].Now - cc.losses[1].Now
	if gap2 < gap1*1.5 {
		t.Fatalf("RTO backoff not doubling: gaps %.2fs then %.2fs", gap1, gap2)
	}
}

func TestMTPStatsAccounting(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 100, mtpEvery: 0.1}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(3)
	if len(cc.mtps) < 25 {
		t.Fatalf("MTP fired %d times in 3s at 100ms, want ≈29", len(cc.mtps))
	}
	var sumDelivered int
	for _, st := range cc.mtps {
		sumDelivered += st.DeliveredBytes
		if st.Duration <= 0 {
			t.Fatal("non-positive MTP duration")
		}
		if st.CwndPkts != 100 {
			t.Fatalf("cwnd in stats %v", st.CwndPkts)
		}
	}
	if int64(sumDelivered) > f.DeliveredBytes {
		t.Fatalf("MTP delivered sum %d exceeds flow total %d", sumDelivered, f.DeliveredBytes)
	}
	st := cc.mtps[len(cc.mtps)-1]
	if st.AvgRTT < 0.030 || st.AvgRTT > 0.040 {
		t.Fatalf("avg RTT %v", st.AvgRTT)
	}
	// The max filter is biased upward by the initial window burst.
	if st.MaxTputBps < 35e6 || st.MaxTputBps > 55e6 {
		t.Fatalf("max throughput %v, want ≈40-50e6", st.MaxTputBps)
	}
}

func TestFlowStartStop(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 10}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc, Start: 2, Duration: 3})
	f.Start()
	s.Run(1.9)
	if f.Active() || f.SentBytes != 0 {
		t.Fatal("flow sent before its start time")
	}
	s.Run(4)
	if !f.Active() {
		t.Fatal("flow not active mid-lifetime")
	}
	s.Run(6)
	if f.Active() {
		t.Fatal("flow still active after its duration")
	}
	sent := f.SentBytes
	s.Run(8)
	if f.SentBytes != sent {
		t.Fatal("flow kept sending after stop")
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	// Windows chosen so both flows together fit in BDP+queue: with giant
	// windows a droptail queue realistically locks the second flow out.
	s, d := testbed(1, 10e6, 0.030, 1<<20)
	cc1 := &recorderCC{fixCwnd: 300}
	cc2 := &recorderCC{fixCwnd: 300}
	f1 := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc1})
	f2 := NewFlow(s, FlowConfig{ID: 1, Path: d.FlowPath(0), CC: cc2})
	f1.Start()
	f2.Start()
	s.Run(5)
	r1 := float64(f1.DeliveredBytes) * 8 / 5
	r2 := float64(f2.DeliveredBytes) * 8 / 5
	total := r1 + r2
	if total > 10.2e6 {
		t.Fatalf("combined %.1f Mbps exceeds link", total/1e6)
	}
	// With equal fixed windows and interleaved arrival, sharing is equal.
	if math.Abs(r1-r2)/total > 0.1 {
		t.Fatalf("equal-cwnd flows unequal: %.1f vs %.1f Mbps", r1/1e6, r2/1e6)
	}
}

func TestLateAckForLostPacketIgnored(t *testing.T) {
	// A packet declared lost whose ack arrives later must not corrupt
	// inflight accounting (inflight would go negative and unblock a burst).
	s, d := testbed(1, 10e6, 0.030, 4500)
	cc := &recorderCC{fixCwnd: 60}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(5)
	if f.Inflight() < 0 {
		t.Fatalf("negative inflight: %d", f.Inflight())
	}
}

func TestMinCwndEnforced(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	f.SetCwnd(0.001)
	if f.Cwnd() < 2 {
		t.Fatalf("cwnd %v below floor", f.Cwnd())
	}
}

func TestDefaultPacingTracksCwnd(t *testing.T) {
	s, d := testbed(1, 100e6, 0.030, 1<<20)
	cc := &recorderCC{fixCwnd: 100}
	f := NewFlow(s, FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc})
	f.Start()
	s.Run(1)
	f.DefaultPacing()
	want := 1.2 * 100 * MSS * 8 / f.SRTT()
	if math.Abs(f.PacingBps()-want)/want > 0.01 {
		t.Fatalf("DefaultPacing %v, want %v", f.PacingBps(), want)
	}
}
