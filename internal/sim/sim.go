// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every other substrate in this repository: network links,
// transport senders, flow generators and the multi-flow training environment
// all schedule callbacks on a single virtual clock. Determinism is guaranteed
// by ordering events on (time, sequence number) and by funnelling all
// randomness through the simulator's seeded RNG.
//
// A Simulator is single-threaded and must only be driven from one goroutine,
// but independent Simulators are fully isolated from each other, so many
// scenarios can run concurrently (see internal/runner.RunBatch).
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/telemetry"
)

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled. Fired and cancelled events are recycled through the
// simulator's free list, so per-event heap allocation is amortized away on
// the hot path; callers hold Timer handles, never raw events. The exception
// is a Line's own event, which is pinned to its line for life.
type event struct {
	at  float64
	seq uint64
	fn  func()
	sim *Simulator

	// gen increments every time the event is recycled; Timer handles carry
	// the generation they were issued for, making stale handles no-ops.
	gen   uint64
	index int // slot in sim.events while queued

	// pinned marks the one event a Line owns: it is re-queued for the
	// line's next item instead of being recycled, so it never reaches the
	// free list and no Timer is ever issued for it.
	pinned bool
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and cancels nothing. Handles remain safe to use after their event
// fires: the underlying storage may be recycled for a later schedule, and a
// stale Cancel is a generation-checked no-op.
type Timer struct {
	e   *event
	gen uint64
}

// Pending reports whether the timer's event is still queued: scheduled,
// not yet fired and not cancelled.
func (t Timer) Pending() bool { return t.e != nil && t.e.gen == t.gen }

// Cancel removes the event from the queue so its callback never runs.
// Cancelling an already fired, cancelled or never scheduled timer is a
// no-op.
func (t Timer) Cancel() {
	if !t.Pending() {
		return
	}
	s := t.e.sim
	s.remove(t.e.index)
	s.release(t.e)
	s.mCancelled.Inc()
}

// Simulator is a single-threaded discrete-event simulator with a virtual
// clock measured in seconds.
type Simulator struct {
	now float64
	seq uint64
	// events is a binary min-heap on (at, seq) holding only live events:
	// Cancel removes its event at once, so the queue never carries dead
	// timers. A delay line keeps only its head here (see Line).
	events []*event
	free   []*event
	rng    *rand.Rand
	// backlog counts delay-line items queued behind their line's head,
	// which are callbacks still to run but not heap entries.
	backlog int

	// Telemetry instruments; nil (no-op) unless Instrument was called.
	mDispatched *telemetry.Counter
	mFreeHit    *telemetry.Counter
	mFreeMiss   *telemetry.Counter
	mCancelled  *telemetry.Counter

	// Processed counts the number of events executed so far.
	Processed uint64

	// AfterEvent, when set, runs after every dispatched event callback
	// completes, with the clock still at the event's time. It exists for
	// observers that must see the simulation in a quiescent state between
	// events — invariant checkers above all (see internal/check) — and must
	// not schedule or cancel events. The cost when unset is one nil check
	// per event.
	AfterEvent func()
}

// New returns a simulator whose randomness derives from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Instrument registers the simulator's event-loop counters on reg: events
// dispatched, free-list hits/misses on schedule, and live events cancelled.
// Counting costs one nil-check branch per operation when disabled and one
// atomic add when enabled; it never changes event order or timing, so
// instrumented and uninstrumented runs are byte-identical.
func (s *Simulator) Instrument(reg *telemetry.Registry) {
	s.mDispatched = reg.Counter("sim_events_dispatched_total", "events executed by the event loop")
	s.mFreeHit = reg.Counter("sim_event_freelist_hits_total", "event schedules served from the free list")
	s.mFreeMiss = reg.Counter("sim_event_freelist_misses_total", "event schedules that allocated a new event")
	s.mCancelled = reg.Counter("sim_timer_cancellations_total", "Timer.Cancel calls that removed a live event from the queue")
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Rand returns the simulator's RNG. All stochastic components (random loss,
// Poisson arrivals, exploration noise during training) must draw from it so
// runs are reproducible from the scenario seed.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// checkTime panics when t lies in the past: scheduling there always
// indicates a logic error in the caller.
func (s *Simulator) checkTime(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, s.now))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics.
func (s *Simulator) At(t float64, fn func()) Timer {
	s.checkTime(t)
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.mFreeHit.Inc()
	} else {
		e = &event{sim: s}
		s.mFreeMiss.Inc()
	}
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	s.push(e)
	return Timer{e: e, gen: e.gen}
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Reschedule re-arms *t to run fn at absolute time at. It is exactly
//
//	t.Cancel()
//	*t = s.At(at, fn)
//
// including the ordering: the event takes the next sequence number, so it
// fires after every event already scheduled for the same instant, and other
// copies of the old handle go stale. When t is still pending the queued
// event is re-keyed in place instead of being removed and pushed again.
func (s *Simulator) Reschedule(t *Timer, at float64, fn func()) {
	e := t.e
	if !t.Pending() || e.sim != s {
		t.Cancel()
		*t = s.At(at, fn)
		return
	}
	s.checkTime(at)
	e.gen++
	e.at, e.seq, e.fn = at, s.seq, fn
	s.seq++
	s.fix(e.index)
	*t = Timer{e: e, gen: e.gen}
}

// release returns a dequeued event to the free list. Bumping the generation
// first invalidates every outstanding Timer handle to it, so the storage can
// be handed out again immediately (even to events scheduled by the callback
// that is about to run).
func (s *Simulator) release(e *event) {
	e.gen++
	e.fn = nil
	s.free = append(s.free, e)
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	s.dispatch(s.remove(0))
	return true
}

// Run executes events until the clock passes until (exclusive) or the queue
// drains. The clock is left at until if the horizon was reached.
func (s *Simulator) Run(until float64) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.dispatch(s.remove(0))
	}
	if s.now < until {
		s.now = until
	}
}

// dispatch advances the clock to a dequeued event and runs its callback.
func (s *Simulator) dispatch(e *event) {
	s.now = e.at
	s.Processed++
	s.mDispatched.Inc()
	fn := e.fn
	if !e.pinned {
		s.release(e)
	}
	fn()
	if s.AfterEvent != nil {
		s.AfterEvent()
	}
}

// Pending returns the number of callbacks still to run: heap entries plus
// delay-line items waiting behind their line's head. Every queued event is
// live: cancelled ones are removed when cancelled.
func (s *Simulator) Pending() int { return len(s.events) + s.backlog }

// Ticker invokes fn every interval seconds starting at start, until the
// returned stop function is called.
func (s *Simulator) Ticker(start, interval float64, fn func()) (stop func()) {
	stopped := false
	var schedule func(t float64)
	schedule = func(t float64) {
		s.At(t, func() {
			if stopped {
				return
			}
			fn()
			if !stopped {
				schedule(t + interval)
			}
		})
	}
	schedule(start)
	return func() { stopped = true }
}

// less orders events by time, ties by scheduling order.
func less(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts e, whose key is already set, into the heap.
func (s *Simulator) push(e *event) {
	e.index = len(s.events)
	s.events = append(s.events, e)
	s.up(e.index)
}

// remove takes the event in heap slot i out of the queue and returns it.
func (s *Simulator) remove(i int) *event {
	h := s.events
	n := len(h) - 1
	e := h[i]
	h[i] = h[n]
	h[i].index = i
	h[n] = nil
	s.events = h[:n]
	if i < n {
		s.fix(i)
	}
	return e
}

// fix restores the heap property after the key in slot i changed.
func (s *Simulator) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

// up sifts the event in slot i toward the root.
func (s *Simulator) up(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down sifts the event in slot i toward the leaves and reports whether it
// moved.
func (s *Simulator) down(i int) bool {
	h := s.events
	n := len(h)
	e := h[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
	return i > start
}
