package flowtrace

import (
	"repro/internal/transport"
)

// Attach registers an observer that records the flow's window changes and
// loss events into tracer under the flow's ID.
func Attach(tracer *Tracer, f *transport.Flow) {
	id := f.ID
	f.Observe(transport.FlowObserver{
		Cwnd: func(now, cwnd float64) {
			tracer.Record(Event{At: now, FlowID: id, Kind: KindCwnd, Value: cwnd})
		},
		Loss: func(e transport.LossEvent) {
			label := ""
			if e.Timeout {
				label = "rto"
			}
			tracer.Record(Event{At: e.Now, FlowID: id, Kind: KindLoss,
				Value: float64(e.Bytes), Label: label})
		},
	})
}
