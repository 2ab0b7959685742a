package main

import (
	"fmt"
	"math"
	"os"
)

// aaPair is one (workload, metric) comparison of the two passes.
type aaPair struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"` // (B-A)/A
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

type aaReport struct {
	Provenance provenance        `json:"provenance"`
	Pairs      []aaPair          `json:"pairs"`
	PassA      []*workloadResult `json:"pass_a"`
	PassB      []*workloadResult `json:"pass_b"`
}

// aaInfo are untraced extras compared as well, with their own tolerance.
// allocs_per_simsec is a count of a deterministic simulation, so two runs
// of the same code must agree almost exactly.
var aaInfo = []metricDef{{Name: "allocs_per_simsec", Unit: "1/sim-s", Bound: 0.01}}

// setupFloorS is the absolute slack setup_s gets in the A/A comparison: a
// set-up of a few hundred ms moves by tens of ms with the page cache.
const setupFloorS = 0.05

// runAA runs the untraced set twice, the second pass in reverse order, and
// checks that the same code agrees with itself within the benchmark's own
// bounds. It returns the process exit code.
func runAA(o options, out string) int {
	o.trace = false
	rep := aaReport{Provenance: capture(o)}
	reversed := make([]workload, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	var okA, okB bool
	var err error
	if rep.PassA, okA, err = runSet(workloads, o); err == nil {
		rep.PassB, okB, err = runSet(reversed, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	exit := 0
	if !okA || !okB {
		exit = 1
	}
	fmt.Printf("== A/A: the same code twice, seed %d ==\n", o.seed)
	for _, a := range rep.PassA {
		var b *workloadResult
		for _, r := range rep.PassB {
			if r.Workload == a.Workload {
				b = r
			}
		}
		compare := func(d metricDef, va, vb float64) {
			p := aaPair{Workload: a.Workload, Metric: d.Name, Unit: d.Unit, A: va, B: vb, Bound: d.Bound}
			if va != 0 {
				p.RelDiff = (vb - va) / va
			}
			p.Within = math.Abs(p.RelDiff) <= d.Bound ||
				(d.Name == "setup_s" && math.Abs(vb-va) <= setupFloorS)
			verdict := "ok"
			if !p.Within {
				verdict, exit = "OUTSIDE BOUND", 1
			}
			fmt.Printf("  %-14s %-18s %14.6g %14.6g %-8s %+7.2f %%  (bound %.0f %%) %s\n",
				p.Workload, p.Metric, p.A, p.B, p.Unit, 100*p.RelDiff, 100*p.Bound, verdict)
			rep.Pairs = append(rep.Pairs, p)
		}
		for _, d := range endToEnd {
			compare(d, a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value)
		}
		for _, d := range aaInfo {
			if va, ok := a.Info[d.Name]; ok {
				compare(d, va, b.Info[d.Name])
			}
		}
	}
	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return exit
}
