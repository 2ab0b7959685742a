// Package check is the property-based correctness harness for the
// emulation stack. It has two halves:
//
//   - A seeded random scenario generator (Generator) that samples link
//     rates, propagation delays, buffer sizes, queue disciplines, loss,
//     jitter, cross traffic, and 1–4 flows with staggered start/stop times
//     and congestion-control algorithms drawn from every registered scheme.
//
//   - An invariant checker (Checker) that attaches to a running simulation
//     through runner.Scenario hooks and asserts, after every simulator
//     event, the conservation and sanity properties the training signal
//     depends on: packets sent == delivered + dropped + in-flight, queue
//     occupancy within the configured buffer, a monotonically
//     non-decreasing clock, cwnd >= 1 segment, and per-sample RTT >= the
//     path's two-way propagation delay.
//
// The bitwise-determinism guarantees elsewhere in the repository prove
// runs are reproducible; this package is what argues they are *correct*,
// and it is the safety net every refactor of sim/netem/transport runs
// against. A failing sweep seed reproduces with
//
//	go test ./internal/check -run TestRandomScenarioInvariants -seed=N
package check

import (
	"fmt"
	"math"

	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Violation is one observed invariant breach.
type Violation struct {
	Rule   string  // stable rule identifier, e.g. "flow-conservation"
	Time   float64 // sim clock when observed
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f [%s] %s", v.Time, v.Rule, v.Detail)
}

// maxRecorded caps stored violation details; a broken invariant typically
// fires every event thereafter, and thousands of copies of the same breach
// help nobody. The total count keeps counting.
const maxRecorded = 32

// Checker watches one scenario run and records invariant violations. Attach
// it before runner.Run; it is not safe to share across scenarios or
// goroutines (build one per run).
//
// Per-flow checks are incremental: a flow's conservation identity and cwnd
// floor can only change at its send/ack/loss/cwnd mutation points, all of
// which call the flow's observers, so the checker marks the flow dirty there
// and re-checks only dirty flows after each event. The cost per event is
// O(flows touched by the event) — almost always 0 or 1 — instead of the
// full-population scan that made event dispatch O(flows) and a whole run
// O(flows²). Finish closes the residual gap with one last full sweep:
// conservation breaches are persistent, so anything a hook-less mutation
// corrupted is still caught before the verdict. Set Exhaustive to restore
// the every-flow-every-event scan (differential tests and benchmarks).
type Checker struct {
	sim   *sim.Simulator
	links []*netem.Link
	flows []*checkedFlow
	dirty []*checkedFlow

	// Exhaustive re-checks every flow after every event (the original
	// O(flows) behavior) instead of only flows marked dirty by their observers.
	// The verdict is identical either way — see TestIncrementalCheckerDifferential.
	Exhaustive bool

	lastNow    float64
	events     uint64
	total      int
	violations []Violation
}

type checkedFlow struct {
	id      int
	f       *transport.Flow
	baseRTT float64 // two-way propagation for this flow's path
	dirty   bool
}

// NewChecker returns an empty checker; wire it to a scenario with Attach.
func NewChecker() *Checker { return &Checker{} }

// Attach hooks the checker into sc, chaining any Probe and OnFlowCreated
// the scenario already carries, and registers an observer on every flow. It
// must be called before the scenario runs.
func (c *Checker) Attach(sc *runner.Scenario) {
	prevProbe := sc.Probe
	prevFlow := sc.OnFlowCreated
	flowSpecs := sc.Flows
	baseRTT := sc.BaseRTT

	sc.Probe = func(s *sim.Simulator, d *netem.Dumbbell) {
		if prevProbe != nil {
			prevProbe(s, d)
		}
		c.sim = s
		c.links = append(c.links, d.Bottleneck)
		prevAfter := s.AfterEvent
		s.AfterEvent = func() {
			if prevAfter != nil {
				prevAfter()
			}
			c.onEvent()
		}
	}
	sc.OnFlowCreated = func(i int, f *transport.Flow) {
		if prevFlow != nil {
			prevFlow(i, f)
		}
		cf := &checkedFlow{id: i, f: f, baseRTT: baseRTT}
		if i < len(flowSpecs) {
			cf.baseRTT += flowSpecs[i].ExtraDelay
		}
		c.flows = append(c.flows, cf)
		f.Observe(transport.FlowObserver{
			Send: func(float64, int) { c.markDirty(cf) },
			Ack: func(e transport.AckEvent) {
				c.checkAck(cf, e)
				c.markDirty(cf)
			},
			Cwnd: func(float64, float64) { c.markDirty(cf) },
			Loss: func(transport.LossEvent) { c.markDirty(cf) },
		})
	}
}

// markDirty queues cf for re-checking at the end of the current event.
func (c *Checker) markDirty(cf *checkedFlow) {
	if !cf.dirty {
		cf.dirty = true
		c.dirty = append(c.dirty, cf)
	}
}

// record notes a violation, keeping at most maxRecorded details.
func (c *Checker) record(rule string, format string, args ...any) {
	c.total++
	if len(c.violations) < maxRecorded {
		now := 0.0
		if c.sim != nil {
			now = c.sim.Now()
		}
		c.violations = append(c.violations, Violation{
			Rule: rule, Time: now, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// onEvent runs after every dispatched simulator event.
func (c *Checker) onEvent() {
	c.events++
	now := c.sim.Now()
	if now < c.lastNow {
		c.record("clock-monotonic", "clock moved backwards: %.9f after %.9f", now, c.lastNow)
	}
	c.lastNow = now

	for _, l := range c.links {
		q := l.QueueBytes()
		limit := l.Config().QueueBytes
		if q < 0 {
			c.record("queue-bound", "link %s queue occupancy negative: %d bytes", l.Name, q)
		}
		if q > limit {
			c.record("queue-bound", "link %s queue %d bytes exceeds configured buffer %d", l.Name, q, limit)
		}
		st := l.Stats()
		inService := int64(0)
		if l.InService() {
			inService = 1
		}
		accounted := st.Delivered + st.TailDrops + st.AQMDrops + st.RandomDrops +
			int64(l.QueueLen()) + inService
		if st.Arrived != accounted {
			c.record("link-conservation",
				"link %s: arrived %d != delivered %d + drops %d/%d/%d + queued %d + in-service %d",
				l.Name, st.Arrived, st.Delivered, st.TailDrops, st.AQMDrops, st.RandomDrops,
				l.QueueLen(), inService)
		}
	}

	if c.Exhaustive {
		for _, cf := range c.flows {
			c.checkFlow(cf)
		}
		for _, cf := range c.dirty {
			cf.dirty = false
		}
		c.dirty = c.dirty[:0]
		return
	}
	for _, cf := range c.dirty {
		c.checkFlow(cf)
		cf.dirty = false
	}
	c.dirty = c.dirty[:0]
}

// checkFlow asserts one flow's per-event invariants against its current
// state.
func (c *Checker) checkFlow(cf *checkedFlow) {
	f := cf.f
	w := f.Cwnd()
	if math.IsNaN(w) || w < 1 {
		c.record("cwnd-floor", "flow %d cwnd %v below 1 segment", cf.id, w)
	}
	inflight := f.Inflight()
	if inflight < 0 {
		c.record("flow-conservation", "flow %d inflight negative: %d", cf.id, inflight)
	}
	// Every sent byte is acknowledged, declared lost, or still
	// outstanding — nothing vanishes, nothing is double-counted.
	if got := f.DeliveredBytes + f.LostBytes + int64(inflight)*transport.MSS; f.SentBytes != got {
		c.record("flow-conservation",
			"flow %d: sent %d B != delivered %d + lost %d + inflight %d pkts",
			cf.id, f.SentBytes, f.DeliveredBytes, f.LostBytes, inflight)
	}
}

// checkAck validates one RTT sample: physics says a round trip can never
// beat the path's two-way propagation delay.
func (c *Checker) checkAck(cf *checkedFlow, e transport.AckEvent) {
	if e.RTT < cf.baseRTT-1e-9 {
		c.record("rtt-floor", "flow %d RTT sample %.6f below propagation floor %.6f",
			cf.id, e.RTT, cf.baseRTT)
	}
	if e.RTT < 0 || math.IsNaN(e.RTT) {
		c.record("rtt-floor", "flow %d RTT sample invalid: %v", cf.id, e.RTT)
	}
}

// Finish runs the end-of-run checks against the completed result and
// returns all recorded violations. Call it exactly once, after runner.Run.
func (c *Checker) Finish(res *runner.Result) []Violation {
	// One last exhaustive sweep: conservation and floor breaches are
	// persistent state properties, so a flow corrupted by a mutation that
	// bypassed every hook (which incremental checking would only notice at
	// its next hook) is still caught here.
	for _, cf := range c.flows {
		c.checkFlow(cf)
	}
	if res == nil {
		return c.violations
	}
	// Cumulative delivery can never exceed what the link could carry plus
	// sampling slack (the queue is empty at t=0, so there is no stored
	// credit to burst from).
	if res.Utilization < 0 || res.Utilization > 1.02 {
		c.record("utilization-range", "utilization %.4f outside [0, 1.02]", res.Utilization)
	}
	for i, fr := range res.Flows {
		if fr.LossRate < 0 || fr.LossRate > 1 {
			c.record("loss-rate-range", "flow %d loss rate %.4f outside [0,1]", i, fr.LossRate)
		}
		if fr.DeliveredBytes < 0 || fr.LostBytes < 0 {
			c.record("flow-conservation", "flow %d negative byte totals: delivered %d lost %d",
				i, fr.DeliveredBytes, fr.LostBytes)
		}
	}
	for _, l := range c.links {
		if res.MaxQueue > l.Config().QueueBytes {
			c.record("queue-bound", "high-water queue %d bytes exceeds buffer %d",
				res.MaxQueue, l.Config().QueueBytes)
		}
	}
	return c.violations
}

// Violations returns the recorded breaches so far (at most maxRecorded
// details; Total counts all).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations observed, including ones beyond
// the recording cap.
func (c *Checker) Total() int { return c.total }

// Events returns how many simulator events the checker inspected. A sweep
// that asserts Events() > 0 can never pass vacuously because a refactor
// unhooked the checker.
func (c *Checker) Events() uint64 { return c.events }
