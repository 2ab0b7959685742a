// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation via `go test -bench=.`. Each benchmark runs the
// corresponding experiment at reduced scale (1 trial, shortened durations)
// and reports simulated-seconds-per-wall-second alongside the standard
// metrics; run `astraea figures` for paper-scale output.
package repro

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// benchOpts keeps each figure benchmark to a few seconds. Set REPRO_WORKERS
// to compare worker-pool sizes (e.g. REPRO_WORKERS=1 for the serial
// baseline); unset or 0 uses GOMAXPROCS.
func benchOpts() experiments.Opts {
	o := experiments.Opts{Trials: 1, TimeScale: 0.15}
	if v := os.Getenv("REPRO_WORKERS"); v != "" {
		if w, err := strconv.Atoi(v); err == nil {
			o.Workers = w
		}
	}
	return o
}

func benchTables(b *testing.B, fn func(experiments.Opts) []*experiments.Table) {
	b.ReportAllocs()
	simStart := runner.SimSeconds()
	for i := 0; i < b.N; i++ {
		tables := fn(benchOpts())
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
		for _, t := range tables {
			if len(t.Rows) == 0 {
				b.Fatalf("%s produced no rows", t.ID)
			}
		}
	}
	if wall := b.Elapsed().Seconds(); wall > 0 {
		b.ReportMetric((runner.SimSeconds()-simStart)/wall, "simsec/wallsec")
	}
}

func one(fn func(experiments.Opts) *experiments.Table) func(experiments.Opts) []*experiments.Table {
	return func(o experiments.Opts) []*experiments.Table {
		return []*experiments.Table{fn(o)}
	}
}

func BenchmarkTable1(b *testing.B)        { benchTables(b, one(experiments.ExpTable1)) }
func BenchmarkFigure1a(b *testing.B)      { benchTables(b, one(experiments.ExpFigure1a)) }
func BenchmarkFigure1b(b *testing.B)      { benchTables(b, one(experiments.ExpFigure1b)) }
func BenchmarkFigure2(b *testing.B)       { benchTables(b, experiments.ExpFigure2) }
func BenchmarkFigure4(b *testing.B)       { benchTables(b, one(experiments.ExpFigure4)) }
func BenchmarkFigure6(b *testing.B)       { benchTables(b, experiments.ExpFigure6) }
func BenchmarkFigure7(b *testing.B)       { benchTables(b, one(experiments.ExpFigure7)) }
func BenchmarkFigure8(b *testing.B)       { benchTables(b, one(experiments.ExpFigure8)) }
func BenchmarkFigure9(b *testing.B)       { benchTables(b, one(experiments.ExpFigure9)) }
func BenchmarkFigure10(b *testing.B)      { benchTables(b, one(experiments.ExpFigure10)) }
func BenchmarkFigure10Large(b *testing.B) { benchTables(b, one(experiments.ExpFigure10Large)) }
func BenchmarkFigure11(b *testing.B)      { benchTables(b, one(experiments.ExpFigure11)) }
func BenchmarkFigure12(b *testing.B)      { benchTables(b, one(experiments.ExpFigure12)) }
func BenchmarkFigure13(b *testing.B)      { benchTables(b, experiments.ExpFigure13) }
func BenchmarkFigure14(b *testing.B)      { benchTables(b, one(experiments.ExpFigure14)) }
func BenchmarkFigure15(b *testing.B)      { benchTables(b, experiments.ExpFigure15) }
func BenchmarkFigure16(b *testing.B)      { benchTables(b, experiments.ExpFigure16) }
func BenchmarkFigure17(b *testing.B)      { benchTables(b, one(experiments.ExpFigure17)) }
func BenchmarkFigure18(b *testing.B)      { benchTables(b, one(experiments.ExpFigure18)) }
func BenchmarkFigure19(b *testing.B)      { benchTables(b, experiments.ExpFigure19) }
func BenchmarkFigure20(b *testing.B)      { benchTables(b, one(experiments.ExpFigure20)) }
func BenchmarkFigure21(b *testing.B)      { benchTables(b, one(experiments.ExpFigure21)) }
func BenchmarkFigure22(b *testing.B)      { benchTables(b, one(experiments.ExpFigure22)) }

// Ablation benches for the design choices DESIGN.md §4 calls out.
func BenchmarkAblationAlpha(b *testing.B)   { benchTables(b, one(experiments.ExpAblationAlpha)) }
func BenchmarkAblationDrain(b *testing.B)   { benchTables(b, one(experiments.ExpAblationDrain)) }
func BenchmarkAblationHistory(b *testing.B) { benchTables(b, one(experiments.ExpAblationHistory)) }

// Extensions beyond the paper: pairwise scheme-coexistence matrix and the
// k-hop parking-lot fairness sweep.
func BenchmarkCoexistence(b *testing.B) { benchTables(b, one(experiments.ExpCoexistenceMatrix)) }
func BenchmarkParkingLot(b *testing.B)  { benchTables(b, one(experiments.ExpParkingLot)) }
