package cc

import (
	"repro/internal/transport"
)

// Vegas is the classical delay-based controller: it compares expected
// throughput (cwnd/baseRTT) against actual throughput (cwnd/RTT) and keeps
// the difference — the number of packets it estimates it has queued — within
// [alpha, beta], adjusting the window by one packet per RTT.
type Vegas struct {
	alpha, beta float64
	ssthresh    float64
	lastAdjust  float64
	recoveryEnd int64
	inRecovery  bool
}

// NewVegas returns a Vegas instance with the standard alpha=2, beta=4.
func NewVegas() *Vegas { return &Vegas{alpha: 2, beta: 4, ssthresh: 1e9} }

// Name implements transport.CongestionControl.
func (v *Vegas) Name() string { return "vegas" }

// Init implements transport.CongestionControl.
func (v *Vegas) Init(f *transport.Flow) {}

// OnAck implements transport.CongestionControl.
func (v *Vegas) OnAck(f *transport.Flow, e transport.AckEvent) {
	if v.inRecovery {
		if e.PktNum >= v.recoveryEnd {
			v.inRecovery = false
		} else {
			return
		}
	}
	w := f.Cwnd()
	base := e.MinRTT
	if base <= 0 || e.SRTT <= 0 {
		return
	}
	// Adjust once per RTT, not per ack.
	if e.Now-v.lastAdjust < e.SRTT {
		if w < v.ssthresh {
			f.SetCwnd(w + 0.5) // slower-than-Reno slow start, per Vegas
		}
		return
	}
	v.lastAdjust = e.Now
	diff := w * (e.SRTT - base) / e.SRTT // estimated queued packets
	switch {
	case w < v.ssthresh && diff < v.beta:
		f.SetCwnd(w + 1)
	case diff < v.alpha:
		f.SetCwnd(w + 1)
	case diff > v.beta:
		f.SetCwnd(w - 1)
	}
}

// OnLoss implements transport.CongestionControl.
func (v *Vegas) OnLoss(f *transport.Flow, e transport.LossEvent) {
	if e.Timeout {
		v.ssthresh = f.Cwnd() / 2
		f.SetCwnd(2)
		return
	}
	if v.inRecovery && e.PktNum < v.recoveryEnd {
		return
	}
	w := f.Cwnd() * 3 / 4
	v.ssthresh = w
	f.SetCwnd(w)
	v.inRecovery = true
	v.recoveryEnd = f.NextPktNum()
}

// OnMTP implements transport.CongestionControl; Vegas is ack-driven.
func (v *Vegas) OnMTP(f *transport.Flow, st transport.MTPStats) {}
