package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(2.0, func() { got = append(got, 2) })
	s.At(1.0, func() { got = append(got, 1) })
	s.At(3.0, func() { got = append(got, 3) })
	s.Run(10)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	s.Run(2)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New(1)
	var at float64
	s.After(0.5, func() { at = s.Now() })
	s.Run(1)
	if at != 0.5 {
		t.Fatalf("event ran at %v, want 0.5", at)
	}
	if s.Now() != 1 {
		t.Fatalf("clock %v after Run(1), want 1", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.At(1, func() { ran = true })
	s.At(2, func() {})
	if !e.Pending() || s.Pending() != 2 {
		t.Fatalf("before Cancel: Pending() = %v, queue %d", e.Pending(), s.Pending())
	}
	e.Cancel()
	// Cancel is eager: the event leaves the queue now, not when popped.
	if e.Pending() || s.Pending() != 1 {
		t.Fatalf("after Cancel: Pending() = %v, queue %d, want false, 1", e.Pending(), s.Pending())
	}
	e.Cancel() // a second Cancel is a no-op
	if s.Pending() != 1 {
		t.Fatalf("second Cancel changed the queue to %d", s.Pending())
	}
	s.Run(3)
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Processed != 1 {
		t.Fatalf("Processed = %d, want 1", s.Processed)
	}
}

func TestStaleTimerHandlesAreNoOps(t *testing.T) {
	s := New(1)
	var zero Timer
	zero.Cancel() // zero Timer is valid and cancels nothing
	if zero.Pending() {
		t.Fatal("zero Timer reports pending")
	}

	fired := s.At(1, func() {})
	s.Run(2)
	if fired.Pending() {
		t.Fatal("fired timer reports pending")
	}
	// The fired event's storage is recycled for the next schedule; the stale
	// handle must not be able to cancel or re-key the new event.
	ran := false
	recycled := s.At(3, func() { ran = true })
	if recycled.e != fired.e {
		t.Fatal("test premise: the fired event's storage was not recycled")
	}
	fired.Cancel()
	if fired.Pending() || !recycled.Pending() {
		t.Fatal("stale Cancel touched the recycled event")
	}
	late := false
	s.Reschedule(&fired, 5, func() { late = true })
	if recycled.e.at != 3 || !recycled.Pending() {
		t.Fatalf("stale Reschedule re-keyed the recycled event to %v", recycled.e.at)
	}
	s.Run(4)
	if !ran {
		t.Fatal("stale handle killed a recycled event")
	}
	if late || !fired.Pending() {
		t.Fatal("Reschedule of a stale handle must schedule afresh, like At")
	}
}

// TestRescheduleInPlace: re-arming a pending timer reuses its queued event,
// moves it in either direction, and makes other copies of the old handle
// stale, exactly as Cancel followed by At would.
func TestRescheduleInPlace(t *testing.T) {
	s := New(1)
	var got []int
	tm := s.At(5, func() { got = append(got, 5) })
	s.At(2, func() { got = append(got, 2) })
	old := tm
	e := tm.e
	s.Reschedule(&tm, 1, func() { got = append(got, 1) })
	if tm.e != e || s.Pending() != 2 {
		t.Fatalf("Reschedule of a pending timer moved storage or grew the queue to %d", s.Pending())
	}
	if old.Pending() || !tm.Pending() {
		t.Fatal("the old handle copy must go stale and the new one stay pending")
	}
	old.Cancel()
	if !tm.Pending() {
		t.Fatal("a stale copy cancelled the re-keyed event")
	}
	s.Reschedule(&tm, 3, func() { got = append(got, 3) })
	checkHeap(t, s)
	s.Run(10)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("fired %v, want [2 3]", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reschedule into the past must panic like At")
		}
	}()
	tm = s.At(20, func() {})
	s.Reschedule(&tm, 1, func() {})
}

// checkHeap asserts the queue's structural invariants: every event knows its
// slot and belongs to s, and no child orders before its parent.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	for i, e := range s.events {
		if e.index != i {
			t.Fatalf("event in slot %d records index %d", i, e.index)
		}
		if e.sim != s {
			t.Fatalf("event in slot %d points at another simulator", i)
		}
		if i > 0 && less(e, s.events[(i-1)/2]) {
			t.Fatalf("heap order violated at slot %d: (%v,%d) under (%v,%d)",
				i, e.at, e.seq, s.events[(i-1)/2].at, s.events[(i-1)/2].seq)
		}
	}
}

// timerWorld drives one simulator through a scripted program of schedules,
// cancels and re-arms over a fixed set of timer slots, recording every
// firing. With resched set it re-arms through Reschedule, otherwise through
// Cancel followed by At — the contract Reschedule must match exactly.
type timerWorld struct {
	t       *testing.T
	s       *Simulator
	resched bool
	slots   [8]Timer
	nextID  int
	trace   []firing
}

type firing struct {
	at float64
	id int
}

// arm re-arms slot k to fire delta seconds from now.
func (w *timerWorld) arm(k int, delta float64) {
	at, fn := w.s.Now()+delta, w.callback()
	if w.resched {
		w.s.Reschedule(&w.slots[k], at, fn)
	} else {
		w.slots[k].Cancel()
		w.slots[k] = w.s.At(at, fn)
	}
}

// schedule overwrites slot k with a fresh event, leaving any event the slot
// held pending but unreachable.
func (w *timerWorld) schedule(k int, delta float64) {
	w.slots[k] = w.s.At(w.s.Now()+delta, w.callback())
}

// callback returns a uniquely numbered event body. What it does when it
// fires is a pure function of its number, so both worlds replay the same
// in-callback cancels and re-arms if and only if they fire in the same
// order. Half the numbers schedule one follow-up and half none, so the
// chain of follow-ups dies out.
func (w *timerWorld) callback() func() {
	id := w.nextID
	w.nextID++
	return func() {
		w.trace = append(w.trace, firing{w.s.Now(), id})
		k, delta := (id/4)%len(w.slots), float64(id%5)*0.01
		switch id % 4 {
		case 0:
			w.arm(k, delta)
		case 1:
			w.slots[k].Cancel()
		case 2:
			w.schedule(k, delta)
		}
		checkHeap(w.t, w.s)
	}
}

// TestRescheduleMatchesCancelAt is the differential test for Reschedule's
// ordering contract: seeded random programs of At / Cancel / Reschedule /
// Step, with cancels and re-arms also issued from inside firing callbacks,
// must fire identically with in-place re-keying and with Cancel + At.
func TestRescheduleMatchesCancelAt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := &timerWorld{t: t, s: New(seed), resched: true}
		b := &timerWorld{t: t, s: New(seed)}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 600; op++ {
			k := rng.Intn(len(a.slots))
			// Whole-centisecond deltas make same-instant ties common, which
			// is where a wrong sequence number would show.
			delta := float64(rng.Intn(6)) * 0.01
			switch rng.Intn(5) {
			case 0:
				a.schedule(k, delta)
				b.schedule(k, delta)
			case 1:
				a.slots[k].Cancel()
				b.slots[k].Cancel()
			case 2, 3:
				a.arm(k, delta)
				b.arm(k, delta)
			case 4:
				a.s.Step()
				b.s.Step()
			}
			checkHeap(t, a.s)
			checkHeap(t, b.s)
		}
		a.s.Run(1e9)
		b.s.Run(1e9)
		if a.s.Processed != b.s.Processed || len(a.trace) != len(b.trace) {
			t.Fatalf("seed %d: Processed %d vs %d, %d vs %d firings",
				seed, a.s.Processed, b.s.Processed, len(a.trace), len(b.trace))
		}
		for i := range a.trace {
			if a.trace[i] != b.trace[i] {
				t.Fatalf("seed %d: firing %d is %+v with Reschedule, %+v with Cancel+At",
					seed, i, a.trace[i], b.trace[i])
			}
		}
		if a.s.Processed == 0 {
			t.Fatalf("seed %d: program fired nothing", seed)
		}
	}
}

// TestHeapInvariantsAfterRandomRemovals cancels random events out of the
// middle of a large queue and checks the heap after every removal, then
// that the survivors — and only they — fire in (time, schedule) order.
func TestHeapInvariantsAfterRandomRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(1)
	const n = 2000
	timers := make([]Timer, n)
	ats := make([]float64, n)
	var fired []int
	for i := range timers {
		i := i
		ats[i] = float64(rng.Intn(200)) * 0.01
		timers[i] = s.At(ats[i], func() { fired = append(fired, i) })
	}
	cancelled := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/2] {
		timers[i].Cancel()
		cancelled[i] = true
		checkHeap(t, s)
	}
	if s.Pending() != n/2 {
		t.Fatalf("queue holds %d events after cancelling half of %d", s.Pending(), n)
	}
	s.Run(1e9)
	if len(fired) != n/2 {
		t.Fatalf("%d events fired, want %d", len(fired), n/2)
	}
	for _, i := range fired {
		if cancelled[i] {
			t.Fatalf("cancelled event %d fired", i)
		}
	}
	// Events were scheduled in index order, so the index is the tie-break.
	if !sort.SliceIsSorted(fired, func(x, y int) bool {
		i, j := fired[x], fired[y]
		return ats[i] < ats[j] || (ats[i] == ats[j] && i < j)
	}) {
		t.Fatal("survivors fired out of (time, schedule) order")
	}
}

func TestEventStorageRecycled(t *testing.T) {
	s := New(1)
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			s.After(0.001*float64(i), func() {})
		}
		s.Run(s.Now() + 1)
	}
	if got := len(s.free); got < 10 {
		t.Fatalf("free list holds %d events after churn; recycling broken", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(0.5, func() {})
	})
	s.Run(2)
}

func TestRunHorizonExclusive(t *testing.T) {
	s := New(1)
	ran := false
	s.At(5, func() { ran = true })
	s.Run(4)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if s.Now() != 4 {
		t.Fatalf("clock %v, want 4", s.Now())
	}
	s.Run(6)
	if !ran {
		t.Fatal("event within extended horizon did not run")
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var times []float64
	stop := s.Ticker(0.5, 1.0, func() { times = append(times, s.Now()) })
	s.At(3.0, func() { stop() })
	s.Run(10)
	want := []float64{0.5, 1.5, 2.5}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", times, want)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			s.After(0.01, recur)
		}
	}
	s.After(0, recur)
	s.Run(10)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []float64 {
		s := New(seed)
		var vals []float64
		for i := 0; i < 50; i++ {
			s.After(s.Rand().Float64(), func() { vals = append(vals, s.Now()) })
		}
		s.Run(2)
		return vals
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of events with arbitrary times, execution order is
// sorted by time with ties broken by insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(rawTimes []uint16) bool {
		if len(rawTimes) == 0 {
			return true
		}
		s := New(7)
		type rec struct {
			at  float64
			idx int
		}
		var fired []rec
		for i, rt := range rawTimes {
			at := float64(rt) / 100.0
			i := i
			s.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		s.Run(1e9)
		if len(fired) != len(rawTimes) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].idx < fired[j].idx
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		s.After(float64(i)*0.1, func() {})
	}
	s.Run(5)
	if s.Processed != 10 {
		t.Fatalf("Processed = %d, want 10", s.Processed)
	}
}
