package flowtrace

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestAttachRecordsFlowEvents(t *testing.T) {
	s := sim.New(1)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{
		RateBps: 20e6, BaseRTT: 0.030, QueueBytes: 6 * transport.MSS,
	})
	f := transport.NewFlow(s, transport.FlowConfig{ID: 3, Path: d.FlowPath(0), CC: cc.MustNew("cubic")})
	tr := &Tracer{}
	Attach(tr, f)
	f.Start()
	s.Run(10)

	cwnds := tr.Filter(3, KindCwnd)
	if len(cwnds) == 0 {
		t.Fatal("no cwnd events recorded")
	}
	losses := tr.Filter(3, KindLoss)
	if len(losses) == 0 {
		t.Fatal("no loss events recorded on a 6-packet buffer")
	}
	// Loss events must coincide with window reductions: for each loss, the
	// next cwnd sample should eventually be lower than the previous peak.
	firstLoss := losses[0].At
	var before, after float64
	for _, e := range cwnds {
		if e.At < firstLoss {
			before = e.Value
		}
		if e.At >= firstLoss && after == 0 {
			after = e.Value
		}
	}
	if after >= before {
		t.Fatalf("cwnd did not drop across the first loss: %.1f -> %.1f", before, after)
	}
}

func TestAttachBesideAnotherObserver(t *testing.T) {
	s := sim.New(1)
	d := netem.NewDumbbell(s, netem.DumbbellConfig{RateBps: 20e6, BaseRTT: 0.030, QueueBytes: 1 << 20})
	f := transport.NewFlow(s, transport.FlowConfig{ID: 0, Path: d.FlowPath(0), CC: cc.MustNew("cubic")})
	var other []float64
	f.Observe(transport.FlowObserver{Cwnd: func(now, cwnd float64) { other = append(other, cwnd) }})
	tr := &Tracer{}
	Attach(tr, f)
	f.Start()
	s.Run(2)
	if len(other) == 0 {
		t.Fatal("the observer registered before Attach recorded nothing")
	}
	_, traced := tr.Series(0, KindCwnd)
	if fmt.Sprint(traced) != fmt.Sprint(other) {
		t.Fatalf("tracer and the other observer disagree:\n traced %v\n other  %v", traced, other)
	}
}
