package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// Experiment tests assert the qualitative shape of each result — who wins,
// in which direction — at reduced scale. Absolute numbers live in
// EXPERIMENTS.md from full-scale runs.

func quick() Opts { return Opts{Trials: 1, TimeScale: 0.25} }

func cell(t *testing.T, tb *Table, row int, col string) string {
	t.Helper()
	for i, c := range tb.Columns {
		if c == col {
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("table %s has no column %q (have %v)", tb.ID, col, tb.Columns)
	return ""
}

func cellF(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tb, row, col), 64)
	if err != nil {
		t.Fatalf("table %s cell %q not numeric: %v", tb.ID, col, err)
	}
	return v
}

func rowOf(t *testing.T, tb *Table, name string) int {
	t.Helper()
	for i, r := range tb.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("table %s has no row %q", tb.ID, name)
	return -1
}

func TestFigure1aAuroraUnfair(t *testing.T) {
	tb := ExpFigure1a(quick())
	if !strings.Contains(tb.Note, "share") {
		t.Fatalf("note: %s", tb.Note)
	}
	// The note carries the share; parse it out of the formatted text.
	var share, jain float64
	if _, err := fmtSscanf(tb.Note, &share, &jain); err != nil {
		t.Fatalf("cannot parse note %q: %v", tb.Note, err)
	}
	if share > 0.25 {
		t.Fatalf("second Aurora flow got %.2f of bandwidth; should be starved", share)
	}
}

// fmtSscanf pulls the two floats out of the Fig. 1a note.
func fmtSscanf(note string, share, jain *float64) (int, error) {
	cleaned := strings.NewReplacer("=", " ", ";", " ", ":", " ").Replace(note)
	fields := strings.Fields(cleaned)
	var got []float64
	for _, f := range fields {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			got = append(got, v)
		}
	}
	if len(got) < 2 {
		return 0, strconv.ErrSyntax
	}
	*share, *jain = got[0], got[len(got)-1]
	return 2, nil
}

func TestFigure4JainSaturates(t *testing.T) {
	tb := ExpFigure4(Opts{})
	// Row 0: gap 0; row 2: gap 20.
	jain0 := cellF(t, tb, 0, "jain")
	jain20 := cellF(t, tb, 2, "jain")
	rfair0 := cellF(t, tb, 0, "one_minus_rfair")
	rfair20 := cellF(t, tb, 2, "one_minus_rfair")
	if jain0 != 1 || rfair0 != 1 {
		t.Fatalf("equal split should score 1/1, got %v/%v", jain0, rfair0)
	}
	jainDrop := jain0 - jain20
	rfairDrop := rfair0 - rfair20
	if !(rfairDrop > 2*jainDrop) {
		t.Fatalf("R_fair drop %.3f not clearly above Jain drop %.3f (paper: 0.19 vs 0.038)",
			rfairDrop, jainDrop)
	}
	if jainDrop > 0.06 {
		t.Fatalf("Jain drop %.3f too large; saturation claim violated", jainDrop)
	}
}

func TestFigure17MonotoneAndOrderedEquilibria(t *testing.T) {
	tb := ExpFigure17(Opts{})
	delayCols := []string{"delay41ms", "delay44ms", "delay48ms", "delay56ms", "delay72ms"}
	prevEq := -1.0
	for r := range tb.Rows {
		prev := 2.0
		for _, c := range delayCols {
			a := cellF(t, tb, r, c)
			if a > prev+1e-9 {
				t.Fatalf("row %d: action not decreasing in delay", r)
			}
			prev = a
		}
		// Fairness requires the equilibrium delay to be ordered across
		// throughputs: at the shared queueing delay, the faster flow must
		// sit in its shrink region and the slower flow in its grow region,
		// i.e. equilibrium delay strictly decreasing with current
		// throughput. (See the table note on the paper's prose.)
		eq := cellF(t, tb, r, "equilibrium_ms")
		if prevEq > 0 && eq >= prevEq {
			t.Fatalf("equilibrium delay not strictly ordered across bandwidths: %v after %v", eq, prevEq)
		}
		prevEq = eq
	}
}

func TestFigure11MaxMinShape(t *testing.T) {
	tb := ExpFigure11(Opts{Trials: 1, TimeScale: 0.4})
	for r := range tb.Rows {
		fs1 := cellF(t, tb, r, "fs1_avg_mbps")
		fs1Ideal := cellF(t, tb, r, "fs1_ideal")
		fs2 := cellF(t, tb, r, "fs2_avg_mbps")
		fs2Ideal := cellF(t, tb, r, "fs2_ideal")
		if relErr(fs1, fs1Ideal) > 0.35 {
			t.Errorf("row %d: FS-1 %.1f vs ideal %.1f", r, fs1, fs1Ideal)
		}
		if relErr(fs2, fs2Ideal) > 0.35 {
			t.Errorf("row %d: FS-2 %.1f vs ideal %.1f", r, fs2, fs2Ideal)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// TestFigure16BatchServiceWins asserts §5.4's claim on the cost it is
// about: at 500+ flows one decision round through the shared batch service
// takes less process CPU than through per-flow servers. Wall time is not
// asserted — on a small box the per-flow goroutines spread over every core
// while the batch service evaluates on one.
func TestFigure16BatchServiceWins(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("CPU contrast is not meaningful under the race detector")
	}
	tb := ExpFigure16(Opts{})[1]
	for r := range tb.Rows {
		if cellF(t, tb, r, "flows") < 500 {
			continue
		}
		if ratio := cellF(t, tb, r, "cpu_ratio"); ratio < 1 {
			t.Errorf("%s flows: batch service used more CPU than per-flow servers (%.2fx; per-flow %s, batch %s)",
				tb.Rows[r][0], ratio, cell(t, tb, r, "per_flow_cpu"), cell(t, tb, r, "batch_cpu"))
		}
	}
}

func TestFigure18FairnessRobustAcrossKnob(t *testing.T) {
	tb := ExpFigure18(Opts{Trials: 1, TimeScale: 0.25})
	for r := range tb.Rows {
		if j := cellF(t, tb, r, "jain"); j < 0.85 {
			t.Errorf("delta=%s Jain %.3f — fairness should be knob-robust", tb.Rows[r][0], j)
		}
	}
}

func TestFigure20SatelliteShape(t *testing.T) {
	tb := ExpFigure20(Opts{Trials: 1, TimeScale: 0.3})
	// Loss-reactive Cubic must deliver far less than loss-resilient BBR.
	cubic := cellF(t, tb, rowOf(t, tb, "cubic"), "tput_mbps")
	bbr := cellF(t, tb, rowOf(t, tb, "bbr"), "tput_mbps")
	astraea := cellF(t, tb, rowOf(t, tb, "astraea"), "tput_mbps")
	if cubic > bbr/2 {
		t.Errorf("cubic %.1f Mbps vs bbr %.1f on lossy satellite — cubic should collapse", cubic, bbr)
	}
	if astraea < cubic {
		t.Errorf("astraea %.1f below loss-reactive cubic %.1f", astraea, cubic)
	}
}

func TestFigure14FriendlinessOrdering(t *testing.T) {
	tb := ExpFigure14(Opts{Trials: 1, TimeScale: 0.4})
	aurora := cellF(t, tb, rowOf(t, tb, "aurora"), "vs1_cubic")
	astraea := cellF(t, tb, rowOf(t, tb, "astraea"), "vs1_cubic")
	vegas := cellF(t, tb, rowOf(t, tb, "vegas"), "vs1_cubic")
	if aurora < 3 {
		t.Errorf("aurora friendliness ratio %.1f; should be hostile (≫1)", aurora)
	}
	if astraea > aurora {
		t.Errorf("astraea (%.2f) should be less hostile than aurora (%.2f)", astraea, aurora)
	}
	if vegas > 1.5 {
		t.Errorf("vegas ratio %.2f; delay-based schemes lose to cubic", vegas)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "T", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}, {"333", "4"}},
		Note: "n",
	}
	s := tb.String()
	if !strings.Contains(s, "== x: T ==") || !strings.Contains(s, "-- n") {
		t.Fatalf("rendering:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n333,4\n") {
		t.Fatalf("csv:\n%s", csv)
	}
}
