package transport

import (
	"math/rand"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// observed is one event as an observer saw it.
type observed struct {
	who     int
	kind    string
	now     float64
	bytes   int
	packets int
	timeout bool
	cwnd    float64
}

// logObserver appends every event it sees to *log, tagged with who.
func logObserver(who int, log *[]observed) FlowObserver {
	return FlowObserver{
		Send: func(now float64, bytes int) {
			*log = append(*log, observed{who: who, kind: "send", now: now, bytes: bytes})
		},
		Ack: func(e AckEvent) {
			*log = append(*log, observed{who: who, kind: "ack", now: e.Now, bytes: e.Bytes})
		},
		Cwnd: func(now, cwnd float64) {
			*log = append(*log, observed{who: who, kind: "cwnd", now: now, cwnd: cwnd})
		},
		Loss: func(e LossEvent) {
			*log = append(*log, observed{who: who, kind: "loss", now: e.Now,
				bytes: e.Bytes, packets: e.Packets, timeout: e.Timeout})
		},
	}
}

// TestFlowObserversMatchCounters ties the observer events to the flow's
// lifetime counters on a lossy link that reaches both loss paths
// (reordering detection and the RTO's bulk loss), with a stop mid-run.
// Two observers share one log, so the log also proves both see every event
// in registration order.
func TestFlowObserversMatchCounters(t *testing.T) {
	s := sim.New(3)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps: 10e6, BaseRTT: 0.020, QueueBytes: 30000, LossProb: 0.02,
	})
	f := NewFlow(s, FlowConfig{
		ID: 0, Path: d.FlowPath(0), CC: &chaosCC{rng: rand.New(rand.NewSource(3))},
		Duration: 8,
	})
	var log []observed
	f.Observe(logObserver(0, &log))
	f.Observe(FlowObserver{}) // all members nil: skipped
	f.Observe(logObserver(1, &log))
	f.Start()
	s.Run(10)

	if len(log)%2 != 0 {
		t.Fatalf("odd event log length %d: an observer missed an event", len(log))
	}
	var sent, acked, lost int64
	var lostPkts, reorderLosses, timeoutLosses int
	lastCwnd := -1.0
	for i := 0; i < len(log); i += 2 {
		a, b := log[i], log[i+1]
		if a.who != 0 || b.who != 1 {
			t.Fatalf("event %d: observers called out of registration order (%d then %d)", i/2, a.who, b.who)
		}
		b.who = a.who
		if a != b {
			t.Fatalf("event %d: observers disagree: %+v vs %+v", i/2, a, b)
		}
		if a.now > 8 {
			t.Fatalf("event %d (%s) at t=%v, after the flow stopped at 8", i/2, a.kind, a.now)
		}
		switch a.kind {
		case "send":
			sent += int64(a.bytes)
		case "ack":
			acked += int64(a.bytes)
		case "loss":
			lost += int64(a.bytes)
			lostPkts += a.packets
			if a.timeout {
				timeoutLosses++
			} else {
				reorderLosses++
			}
		case "cwnd":
			lastCwnd = a.cwnd
		}
	}
	if reorderLosses == 0 || timeoutLosses == 0 {
		t.Fatalf("scenario reached %d reorder and %d RTO loss events, want both", reorderLosses, timeoutLosses)
	}
	if sent != f.SentBytes {
		t.Errorf("observed send bytes %d, SentBytes %d", sent, f.SentBytes)
	}
	if acked != f.DeliveredBytes {
		t.Errorf("observed ack bytes %d, DeliveredBytes %d", acked, f.DeliveredBytes)
	}
	if lost != f.LostBytes || int64(lostPkts) != f.LostPackets {
		t.Errorf("observed loss %d B / %d pkts, LostBytes %d / LostPackets %d",
			lost, lostPkts, f.LostBytes, f.LostPackets)
	}
	if lastCwnd != f.Cwnd() {
		t.Errorf("last observed cwnd %v, Cwnd() %v", lastCwnd, f.Cwnd())
	}
}
