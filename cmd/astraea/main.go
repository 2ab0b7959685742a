// Command astraea is the one binary of this reproduction. Its subcommands
// cover the paper's three roles — training, the shared inference service
// (§4) and the sender datapath on the emulation substrate — and the tools
// around them:
//
//	run         run one scenario and print per-flow results
//	figures     regenerate the paper's tables and figures
//	train       train an actor: multi-agent TD3 or distillation
//	serve       the batched policy inference daemon
//	loadgen     drive a serve endpoint; report throughput and latency
//	quantize    check an actor's fixed-point compile against its float weights
//	pilot       closed loop: train, gate, promote into serve, roll back
//	tournament  rank schemes across a grid of scenario families
//	fairlab     reward-strategy ablation
//
// Usage is `astraea <subcommand> [flags]`; `astraea <subcommand> -h` lists
// a subcommand's flags, and bare `astraea` lists the subcommands. Every
// subcommand exits 0 on success, 1 when the run fails and 2 on a usage
// error: a bad flag, a missing required flag or an unknown subcommand.
//
// train, figures, pilot and serve share one observability pair: -telemetry
// path writes a metrics snapshot at exit (.json = JSON, else Prometheus
// text) and -pprof addr serves live /metrics and /debug/pprof while the run
// lasts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// commands is the subcommand table. Each entry parses its own arguments
// and returns its exit status.
var commands = []struct {
	name, summary string
	main          func(args []string, stdout, stderr io.Writer) int
}{
	{"run", "run one scenario and print per-flow results", cmdRun},
	{"figures", "regenerate the paper's tables and figures", cmdFigures},
	{"train", "train an actor: multi-agent TD3 or distillation", cmdTrain},
	{"serve", "the batched policy inference daemon", cmdServe},
	{"loadgen", "drive a serve endpoint; report throughput and latency", cmdLoadgen},
	{"quantize", "check an actor's fixed-point compile against its float weights", cmdQuantize},
	{"pilot", "closed loop: train, gate, promote into serve, roll back", cmdPilot},
	{"tournament", "rank schemes across a grid of scenario families", cmdTournament},
	{"fairlab", "reward-strategy ablation", cmdFairlab},
}

// dispatch runs the subcommand args[0] names with the rest of args and
// returns its exit status. Without a known subcommand it lists the table:
// exit 0 when asked for with -h, else 2.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.main(args[1:], stdout, stderr)
			}
		}
		switch args[0] {
		case "-h", "-help", "--help", "help":
			listCommands(stderr)
			return 0
		}
		fmt.Fprintf(stderr, "astraea: unknown subcommand %q\n", args[0])
	}
	listCommands(stderr)
	return 2
}

func listCommands(w io.Writer) {
	fmt.Fprintln(w, "usage: astraea <subcommand> [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nastraea <subcommand> -h lists its flags.")
}

// newFlagSet returns the flag set of one subcommand. Its name,
// "astraea <sub>", prefixes the subcommand's messages.
func newFlagSet(sub string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("astraea "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseStatus is the exit status for a FlagSet.Parse error: 0 after -h,
// 2 after a bad flag. The flag set has already printed usage or the reason.
func parseStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// usageError reports a command line the flag package accepts but the
// subcommand cannot run (a missing required flag, a value out of range),
// prints the usage and returns 2.
func usageError(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return 2
}

// failed reports the error that ended a run and returns 1.
func failed(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return 1
}

// splitList splits a comma-separated flag value, trimming blanks and
// dropping empty entries; "" gives nil.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeReport writes a report as stem.json and its rendered table as
// stem.txt, creating stem's directory.
func writeReport(stem string, js, table []byte) error {
	if err := os.MkdirAll(filepath.Dir(stem), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(stem+".txt", table, 0o644)
}

// observability is the flag pair train, figures, pilot and serve share:
// -telemetry writes a metrics snapshot at exit, -pprof serves live /metrics
// and /debug/pprof while the run lasts.
type observability struct {
	fs               *flag.FlagSet
	telemetry, pprof string
}

func addObservability(fs *flag.FlagSet) *observability {
	o := &observability{fs: fs}
	fs.StringVar(&o.telemetry, "telemetry", "", "write a telemetry snapshot to this path at exit (.json = JSON, else Prometheus text)")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof and live /metrics on this address (e.g. 127.0.0.1:6060)")
	return o
}

// start returns the registry the run records into, holding the process
// gauges, and serves it on -pprof until stop. With neither flag set the
// registry is nil and every instrumented layer skips its metrics.
func (o *observability) start() (reg *telemetry.Registry, stop func(), err error) {
	stop = func() {}
	if o.telemetry == "" && o.pprof == "" {
		return nil, stop, nil
	}
	reg = telemetry.NewRegistry()
	runner.InstrumentProcess(reg)
	if o.pprof != "" {
		bound, closeHTTP, err := telemetry.Serve(o.pprof, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("pprof: %w", err)
		}
		stop = closeHTTP
		fmt.Fprintf(o.fs.Output(), "%s: serving pprof and /metrics on http://%s\n", o.fs.Name(), bound)
	}
	return reg, stop, nil
}

// snapshot writes reg to the -telemetry path, if one is set.
func (o *observability) snapshot(reg *telemetry.Registry) error {
	if o.telemetry == "" {
		return nil
	}
	if err := telemetry.WriteFile(o.telemetry, reg); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	fmt.Fprintf(o.fs.Output(), "%s: wrote telemetry snapshot to %s\n", o.fs.Name(), o.telemetry)
	return nil
}
