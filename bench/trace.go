package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around the calls into each layer. A span that stands for many
// calls (per-packet callbacks, batch evaluations) carries Busy: the time
// spent inside those calls, which is what its parent's self time loses.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a root
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Busy   float64            `json:"busy_s,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

// add records a span and returns its id, for children to name as parent.
func (t *tracer) add(parent int, name string, start, end time.Time, busy float64, attrs map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Busy: busy, Attrs: attrs,
	})
	return id
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// budgetRow is one line of a workload's layer budget.
type budgetRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
	// How says where the number comes from: "span" (timed around the
	// call), "probe" (count × a micro-probe's unit cost) or "residual".
	How string `json:"how"`
}

// layerBudget is a workload's wall (or CPU) time split by layer. Rows plus
// Unattributed sum to Total.
type layerBudget struct {
	Of           string      `json:"of"` // what Total measures
	Total        float64     `json:"total_s"`
	Rows         []budgetRow `json:"rows"`
	Unattributed float64     `json:"unattributed_s"`
	Within10     bool        `json:"within_10_percent"`
}

func newBudget(of string, total float64) *layerBudget {
	return &layerBudget{Of: of, Total: total}
}

func (b *layerBudget) add(layer, how string, seconds float64) {
	b.Rows = append(b.Rows, budgetRow{Layer: layer, Seconds: seconds, How: how})
}

// close computes shares and the unattributed remainder, and warns when the
// attributed rows miss the total by more than 10 %: the layer table is then
// not to be trusted for this run.
func (b *layerBudget) close() {
	var sum float64
	for i := range b.Rows {
		sum += b.Rows[i].Seconds
		if b.Total > 0 {
			b.Rows[i].Share = b.Rows[i].Seconds / b.Total
		}
	}
	b.Unattributed = b.Total - sum
	b.Within10 = b.Total > 0 && b.Unattributed <= 0.10*b.Total && b.Unattributed >= -0.10*b.Total
	if !b.Within10 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: layer budget of %s attributes %.3f s of %.3f s (more than 10 %% off)\n", b.Of, sum, b.Total)
	}
}

func (b *layerBudget) print() {
	scale, unit := 1.0, "s"
	if b.Total < 1 {
		scale, unit = 1e3, "ms"
	}
	fmt.Printf("  layer budget of %s (%.3f %s):\n", b.Of, b.Total*scale, unit)
	for _, r := range b.Rows {
		fmt.Printf("    %-48s %9.3f %-2s %5.1f %%  [%s]\n", r.Layer, r.Seconds*scale, unit, 100*r.Share, r.How)
	}
	share := 0.0
	if b.Total > 0 {
		share = b.Unattributed / b.Total
	}
	fmt.Printf("    %-48s %9.3f %-2s %5.1f %%\n", "unattributed", b.Unattributed*scale, unit, 100*share)
}
