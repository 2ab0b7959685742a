package cc

import (
	"repro/internal/transport"
)

// remyRule is one entry of the RemyCC rule table: a region of observation
// space mapped to a window action (multiple, increment) and a minimum
// intersend gap expressed as a fraction of the minimum RTT.
type remyRule struct {
	// region bounds on rttRatio = srtt/minRTT
	rttRatioLo, rttRatioHi float64
	// region bounds on ackRateRatio = recent ack rate / best ack rate
	ackLo, ackHi float64

	windowMultiple  float64
	windowIncrement float64
	intersendFrac   float64 // pacing gap multiplier on minRTT/cwnd
}

// Remy emulates a RemyCC: a computer-generated rule table mapping congestion
// signals (RTT ratio, ack-rate ratio) to window actions. Remy tables are
// optimized offline for an assumed network range; outside it they behave
// conservatively, which matches the paper's observation that Remy achieves
// modest utilization on wide-area paths (Fig. 15). This hand-built table
// encodes the conservative, delay-sensitive character of published RemyCCs,
// plus a multiplicative loss backoff so the table cannot wedge itself into
// sustained overflow when the buffer caps the observable RTT ratio.
type Remy struct {
	table       []remyRule
	bestAckBps  float64
	recentBps   float64
	recoveryEnd int64
	inRecovery  bool
}

// NewRemy returns a Remy instance.
func NewRemy() *Remy {
	return &Remy{table: []remyRule{
		// Queue empty, plenty of headroom: multiplicative+additive ramp.
		{1.0, 1.15, 0, 2, 1.25, 3, 0.9},
		// Mild queueing, good ack rate: additive increase.
		{1.15, 1.4, 0.7, 2, 1.0, 1, 1.0},
		// Mild queueing, sagging ack rate: hold.
		{1.15, 1.4, 0, 0.7, 1.0, 0, 1.1},
		// Building queue: gentle decrease.
		{1.4, 1.8, 0, 2, 0.92, 0, 1.2},
		// Heavy queue: strong decrease.
		{1.8, 1e9, 0, 2, 0.8, -1, 1.5},
	}}
}

// Name implements transport.CongestionControl.
func (r *Remy) Name() string { return "remy" }

// Init implements transport.CongestionControl.
func (r *Remy) Init(f *transport.Flow) {
	f.ScheduleMTP(0.02)
}

// OnAck implements transport.CongestionControl.
func (r *Remy) OnAck(f *transport.Flow, e transport.AckEvent) {}

// OnLoss implements transport.CongestionControl: multiplicative backoff at
// most once per window, halving on timeout.
func (r *Remy) OnLoss(f *transport.Flow, e transport.LossEvent) {
	if e.Timeout {
		f.SetCwnd(f.Cwnd() / 2)
		return
	}
	if r.inRecovery && e.PktNum < r.recoveryEnd {
		return
	}
	f.SetCwnd(f.Cwnd() * 0.7)
	r.inRecovery = true
	r.recoveryEnd = f.NextPktNum()
}

// OnMTP implements transport.CongestionControl: rule evaluation once per
// RTT.
func (r *Remy) OnMTP(f *transport.Flow, st transport.MTPStats) {
	defer func() {
		next := f.SRTT()
		if next <= 0 {
			next = 0.02
		}
		f.ScheduleMTP(next)
	}()
	if r.inRecovery && f.LargestAcked() >= r.recoveryEnd {
		r.inRecovery = false
	}
	if st.MinRTT <= 0 || st.AvgRTT <= 0 {
		// No signal yet (e.g. started into a full queue): hold rather than
		// ramp blindly.
		return
	}
	if st.ThroughputBps > 0 {
		r.recentBps = 0.5*r.recentBps + 0.5*st.ThroughputBps
		if r.recentBps > r.bestAckBps {
			r.bestAckBps = r.recentBps
		}
	}
	rttRatio := st.AvgRTT / st.MinRTT
	ackRatio := 1.0
	if r.bestAckBps > 0 {
		ackRatio = r.recentBps / r.bestAckBps
	}
	for _, rule := range r.table {
		if rttRatio >= rule.rttRatioLo && rttRatio < rule.rttRatioHi &&
			ackRatio >= rule.ackLo && ackRatio < rule.ackHi {
			w := f.Cwnd()*rule.windowMultiple + rule.windowIncrement
			if w < 2 {
				w = 2
			}
			f.SetCwnd(w)
			if st.MinRTT > 0 {
				// Pace at cwnd per (intersendFrac * minRTT).
				f.SetPacingBps(f.Cwnd() * transport.MSS * 8 / (rule.intersendFrac * st.MinRTT))
			}
			return
		}
	}
}
