package cc

import (
	"math"

	"repro/internal/transport"
)

// Copa (Arun & Balakrishnan, NSDI'18) targets the rate 1/(delta * dq) where
// dq is the standing queueing delay, moving its window toward the target at
// a velocity that doubles when progress is consistent. It includes the
// competitive-mode switch that detects buffer-filling competitors and
// shrinks delta to compete, which is also the source of the instability the
// paper observes (§5.1.1).
type Copa struct {
	delta        float64
	baseDelta    float64
	velocity     float64
	direction    int // +1 up, -1 down, 0 unset
	sameDirCount int
	lastUpdate   float64
	lastCwnd     float64

	// competitive-mode detection state
	rttWindow  []rttSample
	modeSwitch bool
}

type rttSample struct {
	t   float64
	rtt float64
}

// NewCopa returns a Copa instance with the default delta of 0.5.
func NewCopa() *Copa {
	return &Copa{delta: 0.5, baseDelta: 0.5, velocity: 1}
}

// Name implements transport.CongestionControl.
func (c *Copa) Name() string { return "copa" }

// Init implements transport.CongestionControl.
func (c *Copa) Init(f *transport.Flow) {}

// OnAck implements transport.CongestionControl.
func (c *Copa) OnAck(f *transport.Flow, e transport.AckEvent) {
	if e.MinRTT <= 0 {
		return
	}
	now := e.Now
	c.rttWindow = append(c.rttWindow, rttSample{now, e.RTT})
	cut := 0
	for cut < len(c.rttWindow) && c.rttWindow[cut].t < now-4*e.SRTT {
		cut++
	}
	c.rttWindow = c.rttWindow[cut:]

	dq := e.RTT - e.MinRTT
	if dq < 1e-4 {
		dq = 1e-4
	}
	w := f.Cwnd()
	targetRatePkts := 1 / (c.delta * dq) // packets per second
	targetCwnd := targetRatePkts * e.SRTT

	step := c.velocity / (c.delta * w) // packets per ack, Copa's v/(delta*w)
	if w < targetCwnd {
		c.updateDirection(now, e.SRTT, +1, w)
		f.SetCwnd(w + step)
	} else {
		c.updateDirection(now, e.SRTT, -1, w)
		nw := w - step
		if nw < 2 {
			nw = 2
		}
		f.SetCwnd(nw)
	}
	c.detectMode(e)
	f.DefaultPacing()
}

func (c *Copa) updateDirection(now, srtt float64, dir int, w float64) {
	if now-c.lastUpdate < srtt {
		return
	}
	c.lastUpdate = now
	if dir == c.direction {
		c.sameDirCount++
		if c.sameDirCount >= 3 {
			c.velocity *= 2
			if c.velocity > w {
				c.velocity = w
			}
		}
	} else {
		c.direction = dir
		c.sameDirCount = 0
		c.velocity = 1
	}
}

// detectMode implements Copa's default/competitive switch: if the minimum
// queueing delay over the last few RTTs never drains near zero, a
// buffer-filling competitor is assumed and delta shrinks (more aggressive);
// it is restored once the queue drains again. The occasional erroneous
// switch is what yields Copa's throughput oscillations in Fig. 6.
func (c *Copa) detectMode(e transport.AckEvent) {
	if len(c.rttWindow) < 8 {
		return
	}
	minQ := math.Inf(1)
	maxQ := 0.0
	for _, s := range c.rttWindow {
		q := s.rtt - e.MinRTT
		if q < minQ {
			minQ = q
		}
		if q > maxQ {
			maxQ = q
		}
	}
	// Queue considered "nearly empty" if it dipped below 10% of its swing.
	if minQ > 0.1*maxQ && maxQ > 2e-3 {
		if !c.modeSwitch {
			c.modeSwitch = true
		}
		// competitive: delta decays toward a floor
		c.delta = math.Max(c.delta/2, 0.05)
	} else if c.modeSwitch {
		c.modeSwitch = false
		c.delta = c.baseDelta
	}
}

// OnLoss implements transport.CongestionControl: Copa reacts mildly to
// loss (it is primarily delay-controlled) but halves on timeout.
func (c *Copa) OnLoss(f *transport.Flow, e transport.LossEvent) {
	if e.Timeout {
		f.SetCwnd(f.Cwnd() / 2)
	}
}

// OnMTP implements transport.CongestionControl; Copa is ack-driven.
func (c *Copa) OnMTP(f *transport.Flow, st transport.MTPStats) {}
