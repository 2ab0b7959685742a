package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
)

// cmdQuantize checks, before a deploy, what `astraea serve` will do with a
// trained actor (JSON from `astraea train`, or a sealed generation artifact
// from `astraea pilot`): it compiles the actor to the fixed-point serving
// form exactly as serve does at load (core.QuantizeMLPPolicy), replays a
// sampled state sweep through both the float network and the compiled one,
// prints the worst action divergence, and exits 1 when it exceeds -tol. It
// writes nothing: the float weights are the deployable artifact, and
// compilation is deterministic, so a file that passes here serves exactly
// these actions.
//
//	astraea quantize -in actor.json
//	astraea quantize -in gen-7.policy -check 5000 -tol 0.01
func cmdQuantize(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("quantize", stderr)
	in := fs.String("in", "", "trained actor weights (JSON from astraea train, or a sealed artifact from astraea pilot)")
	checkN := fs.Int("check", 2000, "sampled states replayed through both forms (0 only compiles)")
	tol := fs.Float64("tol", 0.02, "max |float action − quantized action| the check tolerates")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if *in == "" {
		return usageError(fs, "-in is required")
	}

	cfg := core.DefaultConfig()
	fp, _, err := core.LoadPolicy(*in, cfg)
	if err != nil {
		return failed(fs, err)
	}
	qp, err := core.QuantizeMLPPolicy(fp, cfg)
	if err != nil {
		return failed(fs, err)
	}
	fmt.Fprintf(stdout, "astraea quantize: %s compiles to %d layers, %d parameter bytes\n",
		*in, qp.Q.NumLayers(), qp.Q.ParamBytes())
	if *checkN <= 0 {
		return 0
	}
	worst := worstDivergence(fp, qp, cfg, *checkN)
	fmt.Fprintf(stdout, "astraea quantize: worst |Δaction| over %d sampled states: %.5f (tolerance %.5f)\n",
		*checkN, worst, *tol)
	if worst > *tol {
		return failed(fs, fmt.Errorf("quantized policy diverges from the float oracle by %.5f (> %.5f)", worst, *tol))
	}
	return 0
}

// worstDivergence replays n sampled stacked states through both forms. The
// sweep is seeded so reruns on the same weights report the same number.
func worstDivergence(fp *core.MLPPolicy, qp *core.QuantizedPolicy, cfg core.Config, n int) float64 {
	rng := rand.New(rand.NewSource(1))
	var worst float64
	for i := 0; i < n; i++ {
		s := core.SampleCalibrationState(cfg, rng)
		if d := math.Abs(fp.Action(s) - qp.Action(s)); d > worst {
			worst = d
		}
	}
	return worst
}
