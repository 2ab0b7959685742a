// Command astraea-serve is the production policy inference daemon: the
// shared batched service of §4 behind real network transports, with
// per-request deadlines, admission control, a deterministic fallback
// action, hot policy reload, and graceful drain. It is the one inference
// server: senders on udp or unixgram endpoints get the same admission,
// deadlines and fallback as framed stream clients.
//
// Transports: TCP and unix stream sockets speak the length-prefixed framing
// of internal/serve; udp and unixgram endpoints speak the bare datagram
// codec, so core.ServiceClient senders talk to them directly.
//
// Policy artifacts: -policy accepts "reference" or a file that
// core.LoadPolicy sniffs — JSON actor weights, a sealed generation artifact
// from the pilot, or a quantized blob from cmd/astraea-quantize. Float
// artifacts are compiled to the fixed-point serving form at load by default
// (several times faster per inference, see DESIGN.md §12); -float keeps the
// float64 network — the equivalence oracle — instead. Blobs always serve
// quantized. Boot and hot reload load through the same serve.Reloader, so a
// sealed artifact's generation shows on serve_policy_generation from the
// first scrape.
//
// Examples:
//
//	astraea-serve -listen tcp:127.0.0.1:9000 -policy reference
//	astraea-serve -listen tcp::9000,unixgram:/tmp/astraea.sock \
//	    -policy actor.json -reload 1s -deadline 10ms -telemetry :9090
//	astraea-serve -listen udp:127.0.0.1:9000 -policy actor.aqp
//
// Signals: SIGHUP reloads the policy file in place (version bump, no
// dropped requests); SIGINT/SIGTERM drain gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "tcp:127.0.0.1:9000",
		"comma-separated endpoints, each network:address (tcp:host:port, unix:/path, udp:host:port, unixgram:/path)")
	policyArg := flag.String("policy", "reference", `"reference", or a policy file: JSON actor weights, a sealed generation artifact, or a quantized blob (astraea-quantize)`)
	floatPath := flag.Bool("float", false, "serve float artifacts as float64 instead of compiling them to the quantized fixed-point form")
	reload := flag.Duration("reload", 0,
		"poll the -policy file at this interval and hot-reload on change (0 disables; SIGHUP always reloads)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :9090)")
	pprofAddr := flag.String("pprof", "", "alias for -telemetry (the endpoint includes pprof)")
	shards := flag.Int("shards", 0, "policy shards, each with its own evaluator and cloned policy (default GOMAXPROCS, capped at 16)")
	maxInflight := flag.Int("max-inflight", 64, "compatibility knob: feeds the per-shard queue-depth default")
	queueDepth := flag.Int("queue-depth", 0, "requests in flight per shard (default 4×max-inflight; overflow is shed)")
	deadline := flag.Duration("deadline", 20*time.Millisecond, "per-request budget before the fallback action is returned")
	maxBatch := flag.Int("max-batch", 256, "most requests a shard evaluates between two response flushes")
	addrFile := flag.String("addr-file", "", "write the bound endpoints (one network:address per line) to this file")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a graceful drain may take before connections are cut")
	flag.Parse()

	if err := run(*listen, *policyArg, *floatPath, *reload, *telemetryAddr, *pprofAddr,
		*shards, *maxInflight, *queueDepth, *deadline, *maxBatch, *addrFile, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "astraea-serve:", err)
		os.Exit(1)
	}
}

func run(listen, policyArg string, floatPath bool, reload time.Duration, telemetryAddr, pprofAddr string,
	shards, maxInflight, queueDepth int, deadline time.Duration, maxBatch int,
	addrFile string, drainTimeout time.Duration) error {

	cfg := core.DefaultConfig()
	reg := telemetry.NewRegistry()
	var policy core.Policy = core.NewReferencePolicy(cfg)
	var reloader *serve.Reloader
	if policyArg != "reference" {
		reloader = serve.NewReloader(policyArg, cfg)
		reloader.Quantize = !floatPath
		reloader.Instrument(reg)
		p, err := reloader.Load()
		if err != nil {
			return err
		}
		policy = p
		if qp, ok := p.(*core.QuantizedPolicy); ok {
			fmt.Printf("astraea-serve: serving quantized policy (%d layers, %d parameter bytes)\n",
				qp.Q.NumLayers(), qp.Q.ParamBytes())
		} else {
			fmt.Println("astraea-serve: serving float64 policy (-float oracle path)")
		}
	}

	svc := core.NewService(cfg, policy)
	svc.MaxBatch = maxBatch
	srv := serve.NewServer(svc, cfg, serve.Options{
		Shards:      shards,
		MaxInflight: maxInflight,
		QueueDepth:  queueDepth,
		Deadline:    deadline,
	})
	srv.Instrument(reg)
	if reloader != nil && reload > 0 {
		reloader.Interval = reload
		reloader.Watch(srv)
		defer reloader.Stop()
	}

	if telemetryAddr == "" {
		telemetryAddr = pprofAddr
	}
	if telemetryAddr != "" {
		bound, closeHTTP, err := telemetry.Serve(telemetryAddr, reg)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer closeHTTP()
		fmt.Printf("astraea-serve: telemetry and pprof on http://%s/\n", bound)
	}

	var boundLines []string
	for _, spec := range strings.Split(listen, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		network, address, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("bad -listen entry %q (want network:address)", spec)
		}
		addr, err := srv.Listen(network, address)
		if err != nil {
			return err
		}
		fmt.Printf("astraea-serve: listening on %s:%s (deadline %v, %d shards)\n",
			network, addr, deadline, srv.Sharded().NumShards())
		boundLines = append(boundLines, network+":"+addr.String())
	}
	if len(boundLines) == 0 {
		return fmt.Errorf("no endpoints in -listen %q", listen)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(strings.Join(boundLines, "\n")+"\n"), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	sig := make(chan os.Signal, 4)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			if reloader == nil {
				fmt.Println("astraea-serve: SIGHUP ignored (-policy reference has no file to reload)")
				continue
			}
			if v, err := reloader.Reload(srv); err != nil {
				fmt.Fprintln(os.Stderr, "astraea-serve: reload rejected:", err)
			} else {
				fmt.Printf("astraea-serve: policy reloaded, now version %d\n", v)
			}
			continue
		}
		break // SIGINT / SIGTERM: drain
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	requests, batches := srv.Stats()
	fmt.Printf("astraea-serve: drained after %d requests in %d batches across %d shards (policy version %d)\n",
		requests, batches, srv.Sharded().NumShards(), srv.PolicyVersion())
	if err != nil {
		return fmt.Errorf("drain forced after %v: %w", drainTimeout, err)
	}
	return nil
}
