package cc

import (
	"math"

	"repro/internal/transport"
)

// Cubic implements TCP CUBIC (RFC 8312 window growth): after a loss the
// window follows W(t) = C*(t-K)^3 + Wmax, with beta = 0.7 multiplicative
// decrease, fast convergence, and a TCP-friendly (Reno-equivalent) floor.
type Cubic struct {
	c    float64 // scaling constant (0.4)
	beta float64 // multiplicative decrease factor (0.7)

	wMax        float64
	wLastMax    float64
	epochStart  float64
	k           float64
	originPoint float64
	ackCount    float64
	tcpCwnd     float64
	ssthresh    float64

	recoveryEnd int64
	inRecovery  bool
}

// NewCubic returns a CUBIC instance with standard constants.
func NewCubic() *Cubic {
	return &Cubic{c: 0.4, beta: 0.7, ssthresh: 1e9, epochStart: -1}
}

// Name implements transport.CongestionControl.
func (cu *Cubic) Name() string { return "cubic" }

// Init implements transport.CongestionControl.
func (cu *Cubic) Init(f *transport.Flow) {}

// OnAck implements transport.CongestionControl.
func (cu *Cubic) OnAck(f *transport.Flow, e transport.AckEvent) {
	if cu.inRecovery {
		if e.PktNum >= cu.recoveryEnd {
			cu.inRecovery = false
		} else {
			return
		}
	}
	w := f.Cwnd()
	if w < cu.ssthresh {
		f.SetCwnd(w + 1)
		return
	}
	now := e.Now
	if cu.epochStart < 0 {
		cu.epochStart = now
		cu.ackCount = 1
		cu.tcpCwnd = w
		if w < cu.wLastMax {
			cu.k = math.Cbrt((cu.wLastMax - w) / cu.c)
			cu.originPoint = cu.wLastMax
		} else {
			cu.k = 0
			cu.originPoint = w
		}
	}
	t := now - cu.epochStart + e.SRTT // target one RTT ahead, per RFC 8312
	target := cu.originPoint + cu.c*math.Pow(t-cu.k, 3)

	// TCP-friendly region: emulate Reno's growth from the epoch start.
	cu.ackCount++
	cu.tcpCwnd += 3 * (1 - cu.beta) / (1 + cu.beta) / w
	if cu.tcpCwnd > target {
		target = cu.tcpCwnd
	}

	if target > w {
		// Spread the increase across the acks of one window.
		f.SetCwnd(w + (target-w)/w)
	} else {
		f.SetCwnd(w + 0.01/w) // minimal probing when at/above target
	}
}

// OnLoss implements transport.CongestionControl.
func (cu *Cubic) OnLoss(f *transport.Flow, e transport.LossEvent) {
	if e.Timeout {
		cu.reduce(f)
		cu.ssthresh = f.Cwnd()
		f.SetCwnd(2)
		return
	}
	if cu.inRecovery && e.PktNum < cu.recoveryEnd {
		return
	}
	cu.reduce(f)
	cu.inRecovery = true
	cu.recoveryEnd = f.NextPktNum()
}

func (cu *Cubic) reduce(f *transport.Flow) {
	w := f.Cwnd()
	cu.epochStart = -1
	if w < cu.wLastMax {
		// Fast convergence: release bandwidth faster for newcomers.
		cu.wLastMax = w * (1 + cu.beta) / 2
	} else {
		cu.wLastMax = w
	}
	cu.wMax = w
	newW := w * cu.beta
	cu.ssthresh = newW
	f.SetCwnd(newW)
}

// OnMTP implements transport.CongestionControl; CUBIC is ack-driven.
func (cu *Cubic) OnMTP(f *transport.Flow, st transport.MTPStats) {}
