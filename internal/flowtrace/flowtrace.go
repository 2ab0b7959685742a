// Package flowtrace records per-flow control-plane event logs and writes
// them as CSV for offline analysis. It is the debugging instrument a CC
// research library needs when a figure looks wrong: instead of rerunning
// with printf, attach a Tracer and inspect the decision timeline. Attach
// records a flow's window changes and losses; pacing, monitor-period and
// custom events appear only when a caller records them itself.
package flowtrace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies trace events.
type Kind int

// Event kinds.
const (
	KindCwnd Kind = iota
	KindPacing
	KindLoss
	KindMTP
	KindCustom
)

// String names the event kind as it appears in the CSV export.
func (k Kind) String() string {
	switch k {
	case KindCwnd:
		return "cwnd"
	case KindPacing:
		return "pacing"
	case KindLoss:
		return "loss"
	case KindMTP:
		return "mtp"
	case KindCustom:
		return "custom"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At     float64
	FlowID int
	Kind   Kind
	Value  float64 // kind-specific scalar (new cwnd, pacing bps, lost bytes…)
	Label  string  // optional free-form annotation
}

// Tracer accumulates events. It is safe for concurrent use (parallel
// training workers may share one).
type Tracer struct {
	mu     sync.Mutex
	events []Event
	// Cap bounds memory; once reached, new events are dropped and Dropped
	// counts them. Zero means unbounded.
	Cap     int
	Dropped int64
}

// Record appends an event.
func (t *Tracer) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Cap > 0 && len(t.events) >= t.Cap {
		t.Dropped++
		return
	}
	t.events = append(t.events, e)
}

// Recordf is shorthand for a labelled custom event.
func (t *Tracer) Recordf(at float64, flowID int, value float64, format string, args ...any) {
	t.Record(Event{At: at, FlowID: flowID, Kind: KindCustom, Value: value,
		Label: fmt.Sprintf(format, args...)})
}

// Len returns the number of stored events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the stored events sorted by time (stable for
// equal times).
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Filter returns the events of one flow and kind, time-sorted.
func (t *Tracer) Filter(flowID int, kind Kind) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.FlowID == flowID && e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV emits all events as time-sorted CSV with a header.
func (t *Tracer) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time_s,flow,kind,value,label\n"); err != nil {
		return err
	}
	for _, e := range t.Events() {
		label := strings.ReplaceAll(e.Label, ",", ";")
		line := strings.Join([]string{
			strconv.FormatFloat(e.At, 'f', 6, 64),
			strconv.Itoa(e.FlowID),
			e.Kind.String(),
			strconv.FormatFloat(e.Value, 'g', -1, 64),
			label,
		}, ",")
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Series extracts (times, values) for one flow/kind, for plotting.
func (t *Tracer) Series(flowID int, kind Kind) (times, values []float64) {
	for _, e := range t.Filter(flowID, kind) {
		times = append(times, e.At)
		values = append(values, e.Value)
	}
	return times, values
}
