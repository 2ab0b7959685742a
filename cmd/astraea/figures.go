package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

// cmdFigures regenerates every table and figure of the paper's evaluation
// from the emulation substrate and prints them as aligned text (or CSV).
//
//	astraea figures [-quick] [-csv] [-only fig6,fig12,...] [-workers N]
//	        [-telemetry out.prom] [-pprof 127.0.0.1:6060]
func cmdFigures(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("figures", stderr)
	quick := fs.Bool("quick", false, "run reduced trials/durations")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	only := fs.String("only", "", "comma-separated figure/table IDs to run (prefix match, e.g. fig6)")
	trials := fs.Int("trials", 0, "override trial count")
	scale := fs.Float64("scale", 0, "override duration scale (1.0 = paper)")
	outdir := fs.String("outdir", "", "also write one CSV per table into this directory")
	workers := fs.Int("workers", 0, "scenario worker pool size (0 = GOMAXPROCS; results identical for any value)")
	obs := addObservability(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}

	reg, stop, err := obs.start()
	if err != nil {
		return failed(fs, err)
	}
	defer stop()

	o := experiments.Full()
	if *quick {
		o = experiments.Quick()
	}
	if *trials > 0 {
		o.Trials = *trials
	}
	if *scale > 0 {
		o.TimeScale = *scale
	}
	o.Workers = *workers
	o.Telemetry = reg

	want := splitList(*only)
	selected := func(id string) bool {
		for _, w := range want {
			if strings.HasPrefix(id, w) {
				return true
			}
		}
		return len(want) == 0
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return failed(fs, err)
		}
	}
	ran := 0
	for _, r := range figureRuns {
		if !selected(r.id) {
			continue
		}
		for _, t := range r.fn(o) {
			if *csv {
				fmt.Fprintf(stdout, "# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
			if *outdir != "" {
				path := filepath.Join(*outdir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return failed(fs, err)
				}
			}
		}
		ran++
	}
	if ran == 0 {
		return failed(fs, fmt.Errorf("nothing matched -only=%q", *only))
	}
	if err := obs.snapshot(reg); err != nil {
		return failed(fs, err)
	}
	return 0
}

// figureRuns lists every table and figure in paper order; -only matches
// their IDs by prefix.
var figureRuns = []struct {
	id string
	fn func(experiments.Opts) []*experiments.Table
}{
	{"table1", one(experiments.ExpTable1)},
	{"fig1a", one(experiments.ExpFigure1a)},
	{"fig1b", one(experiments.ExpFigure1b)},
	{"fig2", experiments.ExpFigure2},
	{"fig4", one(experiments.ExpFigure4)},
	{"fig6", experiments.ExpFigure6},
	{"fig7", one(experiments.ExpFigure7)},
	{"fig8", one(experiments.ExpFigure8)},
	{"fig9", one(experiments.ExpFigure9)},
	{"fig10", one(experiments.ExpFigure10)},
	{"fig10-large", one(experiments.ExpFigure10Large)},
	{"fig11", one(experiments.ExpFigure11)},
	{"fig12", one(experiments.ExpFigure12)},
	{"fig13", experiments.ExpFigure13},
	{"fig14", one(experiments.ExpFigure14)},
	{"fig15", experiments.ExpFigure15},
	{"fig16", experiments.ExpFigure16},
	{"fig17", one(experiments.ExpFigure17)},
	{"fig18", one(experiments.ExpFigure18)},
	{"fig19", experiments.ExpFigure19},
	{"fig20", one(experiments.ExpFigure20)},
	{"fig21", one(experiments.ExpFigure21)},
	{"fig22", one(experiments.ExpFigure22)},
	{"ablation-alpha", one(experiments.ExpAblationAlpha)},
	{"ablation-drain", one(experiments.ExpAblationDrain)},
	{"ablation-history", one(experiments.ExpAblationHistory)},
	{"coexistence", one(experiments.ExpCoexistenceMatrix)},
	{"parkinglot", one(experiments.ExpParkingLot)},
}

func one(fn func(experiments.Opts) *experiments.Table) func(experiments.Opts) []*experiments.Table {
	return func(o experiments.Opts) []*experiments.Table {
		return []*experiments.Table{fn(o)}
	}
}
