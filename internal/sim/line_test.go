package sim

import (
	"math/rand"
	"testing"
)

// lineWorld drives one simulator through a scripted program over several
// delay lines, a few timer slots, and steps. With useLine unset every line
// push is replaced by an At at the same time — the schedule a Line must
// reproduce exactly.
type lineWorld struct {
	t       *testing.T
	s       *Simulator
	useLine bool
	delays  []float64
	lines   []*Line[int]
	slots   [6]Timer
	nextID  int
	trace   []firing
}

// Multiples of 1/64 s add exactly, so different lines and timers land on
// the same instant often: ties are where a wrong sequence number shows.
var lineDelays = []float64{0, 1.0 / 64, 3.0 / 64, 3.0 / 64, 8.0 / 64}

// lineFollowUpCap bounds the chain of follow-ups callbacks schedule.
const lineFollowUpCap = 4000

func newLineWorld(t *testing.T, seed int64, useLine bool) *lineWorld {
	w := &lineWorld{t: t, s: New(seed), useLine: useLine, delays: lineDelays}
	if useLine {
		for range w.delays {
			w.lines = append(w.lines, NewLine(w.s, w.arrive))
		}
	}
	return w
}

// push sends a fresh item down line k.
func (w *lineWorld) push(k int) {
	id := w.nextID
	w.nextID++
	at := w.s.Now() + w.delays[k]
	if w.useLine {
		w.lines[k].Push(at, id)
	} else {
		w.s.At(at, func() { w.arrive(id) })
	}
}

// arm re-arms timer slot k through Reschedule.
func (w *lineWorld) arm(k int, delta float64) {
	id := w.nextID
	w.nextID++
	w.s.Reschedule(&w.slots[k], w.s.Now()+delta, func() { w.arrive(id) })
}

// schedule overwrites slot k with a fresh At, leaving the old event queued.
func (w *lineWorld) schedule(k int, delta float64) {
	id := w.nextID
	w.nextID++
	w.slots[k] = w.s.At(w.s.Now()+delta, func() { w.arrive(id) })
}

// arrive records a delivery or timer firing, then runs follow-ups that are
// a pure function of the item's number: both worlds issue the same pushes,
// re-arms and cancels from inside callbacks if and only if they fire in the
// same order.
func (w *lineWorld) arrive(id int) {
	w.trace = append(w.trace, firing{w.s.Now(), id})
	if w.nextID < lineFollowUpCap {
		k := id / 7
		switch id % 7 {
		case 0:
			w.push(k % len(w.delays))
		case 1:
			// Two items down one line at one instant: equal timestamps.
			w.push(k % len(w.delays))
			w.push(k % len(w.delays))
		case 2:
			w.arm(k%len(w.slots), float64(id%9)/64)
		case 3:
			w.slots[k%len(w.slots)].Cancel()
		case 4:
			w.schedule(k%len(w.slots), float64(id%5)/64)
		}
	}
	if w.useLine {
		w.checkLines()
	}
}

// checkLines asserts each line's pinned event is in the heap exactly when
// the line holds items, keyed by its head, and never on the free list.
func (w *lineWorld) checkLines() {
	w.t.Helper()
	checkHeap(w.t, w.s)
	for i, l := range w.lines {
		for _, e := range w.s.free {
			if e == &l.ev {
				w.t.Fatalf("line %d: pinned event on the free list", i)
			}
		}
		queued := l.ev.index < len(w.s.events) && w.s.events[l.ev.index] == &l.ev
		if queued != (l.n > 0) {
			w.t.Fatalf("line %d holds %d items but its event queued=%v", i, l.n, queued)
		}
		if l.n > 0 && (l.ev.at != l.ring[l.head].at || l.ev.seq != l.ring[l.head].seq) {
			w.t.Fatalf("line %d: event keyed (%v,%d), head is (%v,%d)",
				i, l.ev.at, l.ev.seq, l.ring[l.head].at, l.ring[l.head].seq)
		}
	}
}

// TestLineMatchesAt is the differential test for Line's ordering contract:
// seeded programs mixing pushes down lines of different constant delays
// (including 0) with At, Reschedule, Cancel and Step — and pushing from
// inside callbacks — must fire the same (time, id) trace with the same
// Processed count as the program with every Push replaced by At, and report
// the same Pending at every step.
func TestLineMatchesAt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := newLineWorld(t, seed, true)
		b := newLineWorld(t, seed, false)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 600; op++ {
			k := rng.Intn(len(a.slots))
			delta := float64(rng.Intn(9)) / 64
			switch rng.Intn(8) {
			case 0, 1, 2:
				l := rng.Intn(len(lineDelays))
				a.push(l)
				b.push(l)
			case 3:
				a.schedule(k, delta)
				b.schedule(k, delta)
			case 4:
				a.arm(k, delta)
				b.arm(k, delta)
			case 5:
				a.slots[k].Cancel()
				b.slots[k].Cancel()
			case 6, 7:
				a.s.Step()
				b.s.Step()
			}
			a.checkLines()
			if pa, pb := a.s.Pending(), b.s.Pending(); pa != pb {
				t.Fatalf("seed %d op %d: Pending %d with lines, %d with At", seed, op, pa, pb)
			}
		}
		a.s.Run(1e9)
		b.s.Run(1e9)
		if a.s.Processed != b.s.Processed || len(a.trace) != len(b.trace) {
			t.Fatalf("seed %d: Processed %d vs %d, %d vs %d firings",
				seed, a.s.Processed, b.s.Processed, len(a.trace), len(b.trace))
		}
		for i := range a.trace {
			if a.trace[i] != b.trace[i] {
				t.Fatalf("seed %d: firing %d is %+v with lines, %+v with At",
					seed, i, a.trace[i], b.trace[i])
			}
		}
		if a.s.Pending() != 0 || a.s.backlog != 0 {
			t.Fatalf("seed %d: drained simulator reports Pending %d, backlog %d", seed, a.s.Pending(), a.s.backlog)
		}
		if a.s.Processed < 400 {
			t.Fatalf("seed %d: program fired only %d events", seed, a.s.Processed)
		}
	}
}

// TestLinePendingCountsBacklog: items waiting behind a line's head are
// callbacks still to run, so Pending counts them though the heap does not
// hold them.
func TestLinePendingCountsBacklog(t *testing.T) {
	s := New(1)
	var got []int
	l := NewLine(s, func(v int) { got = append(got, v) })
	for i := 0; i < 3; i++ {
		l.Push(float64(i+1), i)
	}
	s.At(1.5, func() {})
	if s.Pending() != 4 || len(s.events) != 2 {
		t.Fatalf("Pending %d with %d heap entries, want 4 and 2", s.Pending(), len(s.events))
	}
	for want := 3; want >= 0; want-- {
		s.Step()
		if s.Pending() != want {
			t.Fatalf("Pending %d after a step, want %d", s.Pending(), want)
		}
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 || s.Processed != 4 {
		t.Fatalf("delivered %v in %d events", got, s.Processed)
	}
}

// TestLinePushOutOfOrderPanics: a push earlier than the line's tail, or
// into the past, is a logic error in the caller, as scheduling in the past
// is; there is no fallback path.
func TestLinePushOutOfOrderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := New(1)
	l := NewLine(s, func(int) {})
	l.Push(2, 0)
	l.Push(2, 1) // equal times are fine
	mustPanic("push before the tail", func() { l.Push(1.5, 2) })
	s.Run(3)
	mustPanic("push into the past", func() { l.Push(2.5, 3) })
}

// TestLineEventNeverRecycled: the line's event is re-queued for the next
// item rather than released, so it never reaches the free list, no Timer is
// ever issued for it, and stale handles — whose storage is recycled around
// it — cannot cancel it.
func TestLineEventNeverRecycled(t *testing.T) {
	s := New(1)
	delivered, fired := 0, 0
	l := NewLine(s, func(int) { delivered++ })
	var timers []Timer
	for round := 0; round < 50; round++ {
		now := s.Now()
		for i := 0; i < 4; i++ {
			l.Push(now+0.01, i)
			timers = append(timers, s.At(now+0.01, func() { fired++ }))
		}
		// Every handle from earlier rounds is stale, and its storage now
		// backs this round's timers.
		for _, tm := range timers[:len(timers)-4] {
			tm.Cancel()
		}
		s.Run(now + 1)
		for _, tm := range timers {
			if tm.e == &l.ev {
				t.Fatal("a Timer was issued for the line's event")
			}
		}
		for _, e := range s.free {
			if e == &l.ev {
				t.Fatal("the line's event reached the free list")
			}
		}
	}
	if delivered != 200 || fired != 200 {
		t.Fatalf("delivered %d items and fired %d timers, want 200 each", delivered, fired)
	}
}
