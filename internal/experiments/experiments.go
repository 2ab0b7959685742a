// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 motivation, §5 evaluation, Appendices A–B). Each ExpFigure
// / ExpTable function runs the corresponding workload on the emulation
// substrate and returns structured rows; `astraea figures` renders them and the
// repository-root benchmarks wrap them for `go test -bench`.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Opts scales experiment cost. Full reproduces the paper's trial counts and
// durations; Quick shrinks both for CI and benchmarks.
type Opts struct {
	Trials int
	// TimeScale multiplies scenario durations (1.0 = paper's).
	TimeScale float64
	// Workers bounds how many scenarios run concurrently; <= 0 selects
	// GOMAXPROCS. Results are identical for any worker count: every
	// scenario is a pure function of its seed and config, and the batch
	// engine returns results in submission order.
	Workers int
	// Telemetry, when set, collects runtime metrics from every scenario
	// grid: live batch progress plus merged per-layer counters (see
	// runner.RunBatchObserved). Tables are byte-identical with or without
	// it.
	Telemetry *telemetry.Registry
}

// Quick returns CI-friendly settings.
func Quick() Opts { return Opts{Trials: 2, TimeScale: 0.35} }

// Full returns paper-faithful settings.
func Full() Opts { return Opts{Trials: 10, TimeScale: 1.0} }

func (o Opts) trials() int {
	if o.Trials <= 0 {
		return 1
	}
	return o.Trials
}

func (o Opts) scale(d float64) float64 {
	if o.TimeScale <= 0 {
		return d
	}
	return d * o.TimeScale
}

// runAll executes the scenario grid through the batch engine, in submission
// order. Experiments build their full grid up front, then aggregate by
// index; nested scheme × config × trial loops become index arithmetic.
func runAll(o Opts, grid []runner.Scenario) []*runner.Result {
	rs, err := runner.RunBatchObserved(context.Background(), grid, o.Workers, o.Telemetry)
	if err != nil {
		panic(err)
	}
	return rs
}

// run executes one scenario outside the batch engine (motivation and
// ablation experiments drive single runs directly), still attaching the
// shared telemetry registry. Runs inside one experiment may execute
// concurrently via forEach, but counter and histogram writes are atomic and
// commutative, so the merged totals stay deterministic.
func (o Opts) run(sc runner.Scenario) *runner.Result {
	sc.Telemetry = o.Telemetry
	return runner.MustRun(sc)
}

// forEach fans n hand-built jobs (multi-bottleneck topologies, parking-lot
// sims — anything that is not a plain Scenario) across the worker pool.
// Each job must be self-contained: build its own simulator, write only into
// its own result slot.
func forEach(o Opts, n int, fn func(i int)) {
	err := runner.ForEach(n, o.Workers, func(i int) error {
		fn(i)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// Schemes evaluated across the comparison figures, in presentation order.
var Schemes = []string{"cubic", "vegas", "bbr", "copa", "remy", "aurora", "vivace", "orca", "astraea"}

// Table is a rendered result: a titled grid of formatted cells.
type Table struct {
	ID      string // e.g. "fig6"
	Title   string
	Columns []string
	Rows    [][]string
	Note    string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// mbps formats bits/sec as Mbps.
func mbps(v float64) string { return fmt.Sprintf("%.1f", v/1e6) }

// staggeredFlows builds the canonical Fig. 6 workload: n flows of scheme,
// started every interval seconds, each running for dur seconds.
func staggeredFlows(scheme string, n int, interval, dur float64) []runner.FlowSpec {
	specs := make([]runner.FlowSpec, n)
	for i := range specs {
		specs[i] = runner.FlowSpec{
			Scheme:   scheme,
			Start:    float64(i) * interval,
			Duration: dur,
		}
	}
	return specs
}

// tputSeries extracts the per-flow throughput series of a result.
func tputSeries(res *runner.Result) []*metrics.Timeseries {
	out := make([]*metrics.Timeseries, len(res.Flows))
	for i, fr := range res.Flows {
		out[i] = fr.Tput
	}
	return out
}
