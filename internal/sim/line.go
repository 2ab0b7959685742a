package sim

import "fmt"

// Line is a delay line: a FIFO of values, each delivered to one fixed
// callback at the time it was pushed for. It is how constant-delay hops
// (propagation on a link, a pure delay hop) move packets without putting
// one event per packet in flight into the heap.
//
// Pushes must be non-decreasing in time, which a constant delay added to a
// non-decreasing clock always is. Each item takes its sequence number from
// the simulator's counter at Push, exactly as At would, so a line's items
// are already sorted on (time, seq) and only the head needs to sit in the
// heap. The line owns one pinned event for that: when it fires, the next
// item re-enters the heap under the key it was pushed with. Dispatch is
// therefore the merge of the sorted lines and the ordinary events on the
// same (time, seq) keys — the order At would have produced, event for
// event, and Processed counts each item once.
//
// The pinned event never enters the free list, so no Timer handle can ever
// point at it; line items cannot be cancelled.
type Line[T any] struct {
	sim     *Simulator
	deliver func(T)
	ev      event

	// ring is a power-of-two circular buffer: head indexes the oldest
	// item, n counts them.
	ring []lineItem[T]
	head int
	n    int
}

type lineItem[T any] struct {
	at  float64
	seq uint64
	v   T
}

// NewLine returns an empty delay line on s whose items are handed to
// deliver when their time comes.
func NewLine[T any](s *Simulator, deliver func(T)) *Line[T] {
	l := &Line[T]{sim: s, deliver: deliver}
	l.ev = event{sim: s, pinned: true}
	l.ev.fn = l.fire
	return l
}

// Push schedules v for delivery at absolute time at. Pushing into the past,
// or earlier than the item pushed before it, panics.
func (l *Line[T]) Push(at float64, v T) {
	s := l.sim
	s.checkTime(at)
	if l.n > 0 {
		if tail := l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at; at < tail {
			panic(fmt.Sprintf("sim: line push at %.9f before its tail at %.9f", at, tail))
		}
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	seq := s.seq
	s.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineItem[T]{at, seq, v}
	l.n++
	if l.n == 1 {
		l.ev.at, l.ev.seq = at, seq
		s.push(&l.ev)
	} else {
		s.backlog++
	}
}

// grow doubles the ring, unwrapping it so the oldest item lands in slot 0.
func (l *Line[T]) grow() {
	grown := make([]lineItem[T], max(2*len(l.ring), 16))
	for i := 0; i < l.n; i++ {
		grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = grown, 0
}

// fire is the pinned event's callback: dequeue the head, put the next item
// into the heap under its original key, then deliver.
func (l *Line[T]) fire() {
	v := l.ring[l.head].v
	l.ring[l.head] = lineItem[T]{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		l.ev.at, l.ev.seq = next.at, next.seq
		l.sim.push(&l.ev)
		l.sim.backlog--
	}
	l.deliver(v)
}
