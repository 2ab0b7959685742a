package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// cmdServe is the production policy inference daemon: the shared batched
// service of §4 behind real network transports, with per-request
// deadlines, admission control, a deterministic fallback action, hot
// policy reload and graceful drain. It is the one inference server:
// senders on udp or unixgram endpoints get the same admission, deadlines
// and fallback as framed stream clients.
//
// Transports: TCP and unix stream sockets carry internal/serve's wire
// payloads in length-prefixed frames; udp and unixgram endpoints carry one
// bare payload per datagram. serve.Dial speaks both.
//
// Policy artifacts: -policy accepts "reference" or a file that
// core.LoadPolicy sniffs — JSON actor weights, or a sealed generation
// artifact from the pilot. Either holds float weights, which are compiled
// to the fixed-point serving form at load by default (several times faster
// per inference, see DESIGN.md §12; `astraea quantize -in <file>` reports
// the compile's divergence beforehand); -float keeps the float64 network —
// the equivalence oracle — instead. Boot and hot reload load through the
// same serve.Reloader, so a sealed artifact's generation shows on
// serve_policy_generation from the first scrape of -pprof's /metrics.
//
//	astraea serve -listen tcp:127.0.0.1:9000 -policy reference
//	astraea serve -listen tcp::9000,unixgram:/tmp/astraea.sock \
//	    -policy actor.json -reload 1s -deadline 10ms -pprof :9090
//	astraea serve -listen udp:127.0.0.1:9000 -policy gen-7.policy
//
// Signals: SIGHUP reloads the policy file in place (version bump, no
// dropped requests); SIGINT/SIGTERM drain gracefully.
func cmdServe(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("serve", stderr)
	listen := fs.String("listen", "tcp:127.0.0.1:9000",
		"comma-separated endpoints, each network:address (tcp:host:port, unix:/path, udp:host:port, unixgram:/path)")
	policyArg := fs.String("policy", "reference", `"reference", or a policy file: JSON actor weights or a sealed generation artifact, compiled to fixed point at load`)
	floatPath := fs.Bool("float", false, "serve the policy file's float64 network instead of compiling it to the quantized fixed-point form")
	reload := fs.Duration("reload", 0,
		"poll the -policy file at this interval and hot-reload on change (0 disables; SIGHUP always reloads)")
	shards := fs.Int("shards", 0, "policy shards, each with its own evaluator and cloned policy (default GOMAXPROCS, capped at 16)")
	queueDepth := fs.Int("queue-depth", 256, "requests in flight per shard (overflow is shed)")
	deadline := fs.Duration("deadline", 20*time.Millisecond, "per-request budget before the fallback action is returned")
	maxBatch := fs.Int("max-batch", 256, "most requests a shard evaluates between two response flushes")
	addrFile := fs.String("addr-file", "", "write the bound endpoints (one network:address per line) to this file")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a graceful drain may take before connections are cut")
	obs := addObservability(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}

	specs := splitList(*listen)
	if len(specs) == 0 {
		return usageError(fs, "no endpoints in -listen %q", *listen)
	}
	for _, spec := range specs {
		if !strings.Contains(spec, ":") {
			return usageError(fs, "bad -listen entry %q (want network:address)", spec)
		}
	}

	reg, stop, err := obs.start()
	if err != nil {
		return failed(fs, err)
	}
	defer stop()

	cfg := core.DefaultConfig()
	var policy core.Policy = core.NewReferencePolicy(cfg)
	var reloader *serve.Reloader
	if *policyArg != "reference" {
		reloader = serve.NewReloader(*policyArg, cfg)
		reloader.Quantize = !*floatPath
		reloader.Instrument(reg)
		p, err := reloader.Load()
		if err != nil {
			return failed(fs, err)
		}
		policy = p
		if qp, ok := p.(*core.QuantizedPolicy); ok {
			fmt.Fprintf(stdout, "astraea serve: serving quantized policy (%d layers, %d parameter bytes)\n",
				qp.Q.NumLayers(), qp.Q.ParamBytes())
		} else {
			fmt.Fprintln(stdout, "astraea serve: serving float64 policy (-float oracle path)")
		}
	}

	svc := core.NewService(cfg, policy)
	svc.MaxBatch = *maxBatch
	srv := serve.NewServer(svc, cfg, serve.Options{
		Shards:     *shards,
		QueueDepth: *queueDepth,
		Deadline:   *deadline,
	})
	defer srv.Close() // on early returns; a no-op after the drain below
	srv.Instrument(reg)
	if reloader != nil && *reload > 0 {
		reloader.Interval = *reload
		reloader.Watch(srv)
		defer reloader.Stop()
	}

	var boundLines []string
	for _, spec := range specs {
		network, address, _ := strings.Cut(spec, ":")
		addr, err := srv.Listen(network, address)
		if err != nil {
			return failed(fs, err)
		}
		fmt.Fprintf(stdout, "astraea serve: listening on %s:%s (deadline %v, %d shards)\n",
			network, addr, *deadline, srv.Sharded().NumShards())
		boundLines = append(boundLines, network+":"+addr.String())
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(strings.Join(boundLines, "\n")+"\n"), 0o644); err != nil {
			return failed(fs, fmt.Errorf("write -addr-file: %w", err))
		}
	}

	sig := make(chan os.Signal, 4)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)
	for s := range sig {
		if s == syscall.SIGHUP {
			if reloader == nil {
				fmt.Fprintln(stdout, "astraea serve: SIGHUP ignored (-policy reference has no file to reload)")
				continue
			}
			if v, err := reloader.Reload(srv); err != nil {
				fmt.Fprintln(stderr, "astraea serve: reload rejected:", err)
			} else {
				fmt.Fprintf(stdout, "astraea serve: policy reloaded, now version %d\n", v)
			}
			continue
		}
		break // SIGINT / SIGTERM: drain
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = srv.Shutdown(ctx)
	requests, batches := srv.Stats()
	fmt.Fprintf(stdout, "astraea serve: drained after %d requests in %d batches across %d shards (policy version %d)\n",
		requests, batches, srv.Sharded().NumShards(), srv.PolicyVersion())
	if err != nil {
		return failed(fs, fmt.Errorf("drain forced after %v: %w", *drainTimeout, err))
	}
	if err := obs.snapshot(reg); err != nil {
		return failed(fs, err)
	}
	return 0
}
