package cc

import (
	"repro/internal/transport"
)

// Reno is the classical loss-based AIMD controller: slow start until
// ssthresh, then +1 packet per RTT; on a loss event, multiplicative decrease
// by half, at most once per window (NewReno-style fast recovery implemented
// with packet numbers).
type Reno struct {
	ssthresh    float64
	recoveryEnd int64
	inRecovery  bool
}

// NewReno returns a Reno instance.
func NewReno() *Reno { return &Reno{ssthresh: 1e9} }

// Name implements transport.CongestionControl.
func (r *Reno) Name() string { return "reno" }

// Init implements transport.CongestionControl.
func (r *Reno) Init(f *transport.Flow) {}

// OnAck implements transport.CongestionControl.
func (r *Reno) OnAck(f *transport.Flow, e transport.AckEvent) {
	if r.inRecovery {
		if e.PktNum >= r.recoveryEnd {
			r.inRecovery = false
		} else {
			return
		}
	}
	w := f.Cwnd()
	if w < r.ssthresh {
		f.SetCwnd(w + 1) // slow start: double per RTT
	} else {
		f.SetCwnd(w + 1/w) // congestion avoidance: +1 per RTT
	}
}

// OnLoss implements transport.CongestionControl.
func (r *Reno) OnLoss(f *transport.Flow, e transport.LossEvent) {
	if e.Timeout {
		r.ssthresh = f.Cwnd() / 2
		f.SetCwnd(1)
		r.inRecovery = true
		r.recoveryEnd = f.NextPktNum()
		return
	}
	if r.inRecovery && e.PktNum < r.recoveryEnd {
		return // one reduction per window
	}
	r.ssthresh = f.Cwnd() / 2
	if r.ssthresh < 2 {
		r.ssthresh = 2
	}
	f.SetCwnd(r.ssthresh)
	r.inRecovery = true
	r.recoveryEnd = f.NextPktNum()
}

// OnMTP implements transport.CongestionControl; Reno is purely ack-driven.
func (r *Reno) OnMTP(f *transport.Flow, st transport.MTPStats) {}
