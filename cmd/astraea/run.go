package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cc"
	"repro/internal/flowtrace"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/transport"
)

// cmdRun runs one congestion-control scenario on the emulation substrate
// and prints per-flow results: any registered scheme, any bottleneck
// shape, optional flow staggering.
//
//	astraea run -scheme astraea -bw 100 -rtt 30 -flows 3 -interval 40 -dur 200
//	astraea run -scheme cubic -bw 42 -rtt 800 -loss 0.0074 -dur 100
//	astraea run -list
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr)
	scheme := fs.String("scheme", "astraea", "congestion control scheme")
	list := fs.Bool("list", false, "list registered schemes and exit")
	bw := fs.Float64("bw", 100, "bottleneck bandwidth in Mbps")
	rtt := fs.Float64("rtt", 30, "base RTT in ms")
	bufBDP := fs.Float64("buf", 1, "buffer size in BDP multiples")
	loss := fs.Float64("loss", 0, "random loss probability")
	flows := fs.Int("flows", 1, "number of flows")
	interval := fs.Float64("interval", 0, "flow start stagger in seconds")
	dur := fs.Float64("dur", 30, "run duration in seconds")
	seed := fs.Int64("seed", 1, "random seed")
	series := fs.Bool("series", false, "print per-flow throughput timeseries")
	traceOut := fs.String("trace", "", "write a per-flow control-event CSV (cwnd changes, losses) to this file")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}

	if *list {
		for _, n := range cc.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	switch {
	case *flows < 1:
		return usageError(fs, "-flows must be at least 1, got %d", *flows)
	case !(*bw > 0):
		return usageError(fs, "-bw must be positive, got %g", *bw)
	case !(*bufBDP > 0):
		return usageError(fs, "-buf must be positive, got %g", *bufBDP)
	case !(*loss >= 0 && *loss <= 1):
		return usageError(fs, "-loss must be in [0, 1], got %g", *loss)
	}

	sc := runner.Scenario{
		Seed:     *seed,
		RateBps:  *bw * 1e6,
		BaseRTT:  *rtt / 1000,
		QueueBDP: *bufBDP,
		LossProb: *loss,
		Duration: *dur,
	}
	var tracer *flowtrace.Tracer
	if *traceOut != "" {
		tracer = &flowtrace.Tracer{Cap: 1 << 20}
		sc.OnFlowCreated = func(i int, f *transport.Flow) { flowtrace.Attach(tracer, f) }
	}
	for i := 0; i < *flows; i++ {
		sc.Flows = append(sc.Flows, runner.FlowSpec{
			Scheme: *scheme,
			Start:  float64(i) * *interval,
		})
	}
	res, err := runner.Run(sc)
	if err != nil {
		return failed(fs, err)
	}

	fmt.Fprintf(stdout, "scheme=%s bw=%.0fMbps rtt=%.0fms buf=%.1fBDP dur=%.0fs utilization=%.3f\n",
		*scheme, *bw, *rtt, *bufBDP, *dur, res.Utilization)
	for i, fr := range res.Flows {
		fmt.Fprintf(stdout, "flow %d: avg=%.1f Mbps rtt(avg/min)=%.1f/%.1f ms loss=%.4f\n",
			i, fr.AvgTputBps/1e6, fr.AvgRTT*1000, fr.MinRTT*1000, fr.LossRate)
	}
	if *flows > 1 {
		var avgs []float64
		for _, fr := range res.Flows {
			avgs = append(avgs, fr.AvgTputBps)
		}
		fmt.Fprintf(stdout, "jain index: %.4f\n", metrics.Jain(avgs))
	}
	if *series {
		fmt.Fprintln(stdout, "time_s flow_mbps...")
		for i := 0; i < len(res.Flows[0].Tput.Values); i += 10 {
			fmt.Fprintf(stdout, "%6.1f", float64(i)*res.Flows[0].Tput.Interval)
			for _, fr := range res.Flows {
				fmt.Fprintf(stdout, " %7.2f", fr.Tput.Values[i]/1e6)
			}
			fmt.Fprintln(stdout)
		}
	}
	if tracer != nil {
		if err := writeTrace(tracer, *traceOut, stdout, stderr); err != nil {
			return failed(fs, err)
		}
	}
	return 0
}

// writeTrace writes tracer's events to path as CSV. A tracer that hit its
// cap dropped every later event, so the count goes to stderr: the file
// holds only the start of the run.
func writeTrace(tracer *flowtrace.Tracer, path string, stdout, stderr io.Writer) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteCSV(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d trace events to %s\n", tracer.Len(), path)
	if tracer.Dropped > 0 {
		fmt.Fprintf(stderr, "astraea run: trace truncated: %d events dropped past the %d-event cap\n",
			tracer.Dropped, tracer.Cap)
	}
	return nil
}
