package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/pilot"
	"repro/internal/tournament"
)

// cmdPilot closes the learning loop in production shape: continuous
// training, a regression gate against the serving incumbent, sealed
// generation artifacts with bounded history, hot promotion into a live
// `astraea serve` fleet, and instant rollback when the fleet's own
// telemetry shows the new policy regressing.
//
// The pilot promotes by atomically publishing the sealed artifact to the
// weights file an `astraea serve -reload` daemon watches, then confirms
// the swap by scraping serve_policy_generation off the daemon's /metrics
// endpoint. Health during probation is read from the same endpoint
// (serve_requests_total vs serve_fallback_total).
//
//	# terminal 1: the serving fleet, watching a weights file
//	astraea serve -policy serving.policy -listen tcp:127.0.0.1:9000 \
//	    -reload 100ms -pprof 127.0.0.1:9090
//
//	# terminal 2: the closed loop — train, gate, promote, watch, roll back
//	astraea pilot -promote serving.policy -serve-metrics http://127.0.0.1:9090/metrics \
//	    -dir gens -rounds 8 -episodes-per-round 25 -checkpoint pilot.ckpt
//
// Gate floors default to the paper-motivated regression bars (candidate
// must retain ≥95% of incumbent utilization and Jain fairness, ≤110% of
// its RTT). `-gate-min-jain 1.5` is a handy way to force a refusal when
// rehearsing the failure path.
func cmdPilot(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("pilot", stderr)
	// Serving fleet.
	promote := fs.String("promote", "", "serving weights file to promote into (the file astraea serve -reload watches; required)")
	serveMetrics := fs.String("serve-metrics", "", "fleet /metrics URL for promotion confirmation and probation health (e.g. http://127.0.0.1:9090/metrics)")
	confirmTimeout := fs.Duration("confirm-timeout", 5*time.Second, "how long to wait for the fleet to confirm a promoted generation (0 = publish blind)")

	// Generation store.
	dir := fs.String("dir", "pilot-gens", "generation store directory (manifest + sealed artifacts)")
	keepGens := fs.Int("keep-generations", 8, "sealed generations to keep on disk (serving generation and its parent always survive)")

	// Training loop.
	episodesPerRound := fs.Int("episodes-per-round", 25, "episodes trained between gate evaluations")
	rounds := fs.Int("rounds", 4, "gate evaluations to run before exiting")
	tf := addTrainingFlags(fs)
	checkpoint := fs.String("checkpoint", "", "crash-safe training checkpoint path (resumed automatically when it exists)")
	checkpointEvery := fs.Int("checkpoint-every", 25, "episodes between checkpoint writes when -checkpoint is set")
	checkpointKeep := fs.Int("checkpoint-keep", 3, "rotated episode-numbered checkpoint copies to keep (plus the promoted pin; 0 = single file)")

	// Regression gate.
	gateFamilies := fs.String("gate-families", "", "comma list of scenario families for the gate suite (empty = all)")
	gateFlows := fs.Int("gate-flows", 8, "flows per gate scenario")
	gateDuration := fs.Float64("gate-duration", 5, "seconds simulated per gate scenario")
	gateSeed := fs.Int64("gate-seed", 42, "seed of the fixed gate suite")
	gateUtilFloor := fs.Float64("gate-util-floor", tournament.DefaultGateFloors().UtilRatio, "candidate/incumbent utilization ratio floor")
	gateJainFloor := fs.Float64("gate-jain-floor", tournament.DefaultGateFloors().JainRatio, "candidate/incumbent Jain index ratio floor")
	gateRTTCeiling := fs.Float64("gate-rtt-ceiling", tournament.DefaultGateFloors().RTTRatio, "candidate/incumbent mean RTT ratio ceiling")
	gateMinUtil := fs.Float64("gate-min-util", 0, "absolute utilization floor (0 = disabled)")
	gateMinJain := fs.Float64("gate-min-jain", 0, "absolute Jain index floor (0 = disabled)")

	// Probation.
	probation := fs.Float64("probation", pilot.DefaultHealthPolicy().ProbationSeconds, "seconds to watch fleet health after each promotion (0 = skip)")
	healthInterval := fs.Float64("health-interval", pilot.DefaultHealthPolicy().IntervalSeconds, "seconds between probation health samples")
	healthMinRequests := fs.Int64("health-min-requests", pilot.DefaultHealthPolicy().MinRequests, "minimum requests per window before judging health")
	healthMaxDegraded := fs.Float64("health-max-degraded", pilot.DefaultHealthPolicy().MaxDegradedRate, "fallback-rate above which a window counts as regressed")

	obs := addObservability(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if *promote == "" {
		return usageError(fs, "-promote is required (the weights file the serving fleet watches)")
	}
	cfg, dist, err := tf.config()
	if err != nil {
		return usageError(fs, "%v", err)
	}

	reg, stop, err := obs.start()
	if err != nil {
		return failed(fs, err)
	}
	defer stop()

	// Resume from the checkpoint when one exists, under its settings.
	resume := ""
	if _, statErr := os.Stat(*checkpoint); *checkpoint != "" && statErr == nil {
		resume = *checkpoint
	}
	learner, err := tf.learner(resume, tf.workers, cfg, dist)
	if err != nil {
		return failed(fs, err)
	}
	learner.Instrument(reg)

	store, err := pilot.OpenStore(*dir, *keepGens)
	if err != nil {
		return failed(fs, err)
	}

	sup, err := pilot.New(pilot.Options{
		Store:   store,
		Learner: learner,
		Target: &pilot.FileTarget{
			ServingPath:    *promote,
			MetricsURL:     *serveMetrics,
			ConfirmTimeout: *confirmTimeout,
		},
		EpisodesPerRound: *episodesPerRound,
		Rounds:           *rounds,
		Gate: tournament.GateConfig{
			Families: splitList(*gateFamilies),
			Flows:    *gateFlows,
			Duration: *gateDuration,
			Seed:     *gateSeed,
			Workers:  tf.workers,
			Floors: tournament.GateFloors{
				UtilRatio: *gateUtilFloor,
				JainRatio: *gateJainFloor,
				RTTRatio:  *gateRTTCeiling,
				MinUtil:   *gateMinUtil,
				MinJain:   *gateMinJain,
			},
		},
		Health: pilot.HealthPolicy{
			ProbationSeconds: *probation,
			IntervalSeconds:  *healthInterval,
			MinRequests:      *healthMinRequests,
			MaxDegradedRate:  *healthMaxDegraded,
		},
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		CheckpointKeep:  *checkpointKeep,
		Registry:        reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "astraea pilot: "+format+"\n", args...)
		},
	})
	if err != nil {
		return failed(fs, err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	runErr := sup.Run(ctx)

	if err := obs.snapshot(reg); err != nil {
		return failed(fs, err)
	}
	if runErr != nil && runErr != context.Canceled {
		return failed(fs, runErr)
	}
	if cur, ok := store.Current(); ok {
		fmt.Fprintf(stdout, "serving generation %d (parent %d, %s) after %d episodes\n",
			cur.Gen, cur.Parent, cur.Status, learner.Episodes)
	}
	return 0
}
