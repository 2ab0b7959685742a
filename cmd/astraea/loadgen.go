package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// cmdLoadgen drives an `astraea serve` endpoint and reports achieved
// throughput and latency percentiles. Three modes:
//
//   - Open-loop (default): a fixed -rate schedule; latencies are measured
//     from each request's intended send time, so coordinated omission
//     cannot hide server stalls, and the summary reports the generator's
//     own worst scheduling lag.
//   - Closed-loop (-rate 0): every sender keeps one request in flight
//     back-to-back — the saturation throughput at -conns × -outstanding.
//   - Knee sweep (-knee): closed-loop steps at doubling -outstanding until
//     throughput stops improving; reports the knee (lowest concurrency
//     within 90% of max throughput) plus the full curve.
//
// The JSON summary goes to stdout or -out; the human-readable lines go to
// stderr. -commit and -shards stamp provenance into the knee report.
//
// Exit status: 0 when every request was answered (fallback answers count
// as answered — that is the serving contract), 1 when any request failed
// hard (timeout or transport error), a knee sweep measured zero throughput
// or the run could not start, 2 on usage errors.
//
//	astraea loadgen -addr tcp:127.0.0.1:9000 -rate 5000 -duration 10s
//	astraea loadgen -addr tcp:127.0.0.1:9000 -knee -conns 8 -flows
func cmdLoadgen(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("loadgen", stderr)
	addr := fs.String("addr", "tcp:127.0.0.1:9000", "endpoint to drive, network:address (tcp, unix, udp or unixgram)")
	rate := fs.Float64("rate", 1000, "target aggregate request rate (req/s); 0 = closed-loop saturation")
	duration := fs.Duration("duration", time.Second, "run length (per step in -knee mode)")
	conns := fs.Int("conns", 4, "connections to spread load over")
	outstanding := fs.Int("outstanding", 16, "pipelined requests per connection (max tried in -knee mode)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request timeout (a hard failure when exceeded)")
	flows := fs.Bool("flows", false, "tag each sender with a distinct flow ID (spreads load across server shards)")
	knee := fs.Bool("knee", false, "sweep closed-loop concurrency to find the max-throughput knee")
	commit := fs.String("commit", "", "source commit hash to stamp into the report's provenance")
	shards := fs.Int("shards", 0, "server shard count to stamp into the report's provenance")
	out := fs.String("out", "-", `JSON summary destination ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	network, address, ok := strings.Cut(*addr, ":")
	if !ok {
		return usageError(fs, "bad -addr %q (want network:address)", *addr)
	}

	var doc any
	exit := 0
	if *knee {
		rep, err := serve.RunKnee(serve.KneeOptions{
			Network: network, Address: address,
			Conns:          *conns,
			StepDuration:   *duration,
			MaxOutstanding: *outstanding,
			Timeout:        *timeout,
			TagFlows:       *flows,
			Log:            func(line string) { fmt.Fprintln(stderr, "astraea loadgen:", line) },
		})
		if err != nil {
			return failed(fs, err)
		}
		rep.Env.Commit = *commit
		rep.Env.Shards = *shards
		fmt.Fprintf(stderr, "astraea loadgen: knee %.0f req/s at %d conns × %d outstanding (p50 %.2fms p99 %.2fms, max %.0f req/s)\n",
			rep.AchievedRPS, rep.Conns, rep.KneeOutstanding, rep.P50Ms, rep.P99Ms, rep.MaxRPS)
		if rep.AchievedRPS <= 0 {
			fmt.Fprintln(stderr, "astraea loadgen: knee sweep measured zero throughput")
			exit = 1
		}
		doc = rep
	} else {
		sum, err := serve.RunLoad(serve.LoadOptions{
			Network:     network,
			Address:     address,
			Rate:        *rate,
			ClosedLoop:  *rate <= 0,
			Duration:    *duration,
			Conns:       *conns,
			Outstanding: *outstanding,
			Timeout:     *timeout,
			TagFlows:    *flows,
		})
		if err != nil {
			return failed(fs, err)
		}
		fmt.Fprintln(stderr, "astraea loadgen:", sum.String())
		if sum.Failed > 0 {
			fmt.Fprintf(stderr, "astraea loadgen: %d requests failed hard\n", sum.Failed)
			exit = 1
		}
		doc = sum
	}

	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return failed(fs, err)
	}
	js = append(js, '\n')
	if *out == "-" {
		stdout.Write(js)
	} else if err := os.WriteFile(*out, js, 0o644); err != nil {
		return failed(fs, err)
	}
	return exit
}
