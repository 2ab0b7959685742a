package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
)

// cmdFairlab runs the reward-strategy ablation: one short-budget learner
// per strategy, trained under identical conditions, evaluated head-to-head
// on a fixed fairness grid and ranked on Jain-over-time, convergence speed,
// and throughput cost per fairness point.
//
//	astraea fairlab -out results/fairness_lab
//	astraea fairlab -strategies paper,aurora -episodes 2 -out /tmp/smoke
//	astraea fairlab -strategies paper,maxmin,alpha:2 -actors actors/
//
// -out writes <out>.json (machine-readable report) and <out>.txt (rendered
// table). -actors additionally saves each strategy's trained policy as
// <dir>/<strategy>.json, loadable by `astraea tournament -actors`.
func cmdFairlab(args []string, stdout, stderr io.Writer) int {
	defaults := experiments.DefaultFairnessLabOptions()
	fs := newFlagSet("fairlab", stderr)
	strategies := fs.String("strategies", strings.Join(defaults.Strategies, ","), "comma-separated reward strategies to compare")
	episodes := fs.Int("episodes", defaults.Episodes, "training episodes per strategy")
	seed := fs.Int64("seed", 1, "lab seed (training and evaluation)")
	workers := fs.Int("workers", 4, "strategies trained concurrently")
	out := fs.String("out", "results/fairness_lab", "output stem; writes <out>.json and <out>.txt")
	actorDir := fs.String("actors", "", "also save each trained actor as <dir>/<strategy>.json")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}

	opts := defaults
	opts.Strategies = splitList(*strategies)
	for _, s := range opts.Strategies {
		if _, err := core.NewRewardStrategy(s); err != nil {
			return usageError(fs, "%v (known strategies: %v)", err, core.RewardStrategyNames())
		}
	}
	opts.Episodes = *episodes
	opts.Seed = *seed
	opts.Workers = *workers

	report, err := experiments.RunFairnessLab(opts)
	if err != nil {
		return failed(fs, err)
	}
	table := report.Table().String()
	fmt.Fprint(stdout, table)
	js, err := report.JSON()
	if err != nil {
		return failed(fs, err)
	}
	if err := writeReport(*out, append(js, '\n'), []byte(table)); err != nil {
		return failed(fs, err)
	}
	fmt.Fprintf(stderr, "astraea fairlab: wrote %s.json and %s.txt\n", *out, *out)

	if *actorDir != "" {
		if err := os.MkdirAll(*actorDir, 0o755); err != nil {
			return failed(fs, err)
		}
		for name, policy := range report.Actors {
			path := filepath.Join(*actorDir, experiments.SanitizeStrategyFilename(name)+".json")
			if err := core.SavePolicy(path, policy.Net); err != nil {
				return failed(fs, err)
			}
			fmt.Fprintf(stderr, "astraea fairlab: saved %s actor to %s\n", name, path)
		}
	}
	return 0
}
