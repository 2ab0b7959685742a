package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/flowtrace"
)

// TestSubcommandUsage: every subcommand answers -h with its usage on
// stderr and exit 0, and a bad flag with exit 2; a missing required flag
// is a usage error too. Without a known subcommand the dispatcher lists
// the table and exits 2 — there is no default subcommand.
func TestSubcommandUsage(t *testing.T) {
	for _, c := range commands {
		var stdout, stderr bytes.Buffer
		if code := dispatch([]string{c.name, "-h"}, &stdout, &stderr); code != 0 {
			t.Errorf("%s -h: exit %d, want 0", c.name, code)
		}
		if !strings.Contains(stderr.String(), "Usage of astraea "+c.name) || stdout.Len() != 0 {
			t.Errorf("%s -h: stdout %q, stderr %q; want usage on stderr only", c.name, stdout.String(), stderr.String())
		}
		stderr.Reset()
		if code := dispatch([]string{c.name, "-no-such-flag"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s -no-such-flag: exit %d, want 2", c.name, code)
		}
		if !strings.Contains(stderr.String(), "no-such-flag") {
			t.Errorf("%s -no-such-flag: stderr %q does not name the flag", c.name, stderr.String())
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"pilot"}, "-promote is required"},
		{[]string{"quantize", "-tol", "0.1"}, "-in is required"},
		{[]string{"train", "-mode", "sarsa"}, `unknown mode "sarsa"`},
		{[]string{"train", "-rl-hidden", "8,x"}, `bad -rl-hidden entry "x"`},
		{[]string{"pilot", "-promote", "p", "-max-flows", "0"}, "-max-flows at least 1"},
		{[]string{"loadgen", "-addr", "nocolon"}, "bad -addr"},
		{[]string{"tournament", "-actors", "noequals"}, "want name=path"},
	} {
		var stdout, stderr bytes.Buffer
		if code := dispatch(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
	for _, args := range [][]string{nil, {"frobnicate"}, {"-scheme", "cubic"}, {"-h"}} {
		var stdout, stderr bytes.Buffer
		code := dispatch(args, &stdout, &stderr)
		want := 2
		if len(args) == 1 && args[0] == "-h" {
			want = 0
		}
		if code != want {
			t.Errorf("astraea %v: exit %d, want %d", args, code, want)
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), "  "+c.name+" ") {
				t.Errorf("astraea %v: listing %q lacks %s", args, stderr.String(), c.name)
			}
		}
	}
}

// TestRunRejectsFewerThanOneFlow: a scenario needs a flow, and -series
// indexes the first one; a link needs a positive rate and buffer, and a
// loss probability lies in [0, 1]. Each bad value is a usage error before
// anything runs, not a panic or a misreported result after.
func TestRunRejectsFewerThanOneFlow(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-flows", "0", "-flows must be at least 1"},
		{"-flows", "-3", "-flows must be at least 1"},
		{"-bw", "-5", "-bw must be positive"},
		{"-bw", "0", "-bw must be positive"},
		{"-bw", "NaN", "-bw must be positive"},
		{"-buf", "0", "-buf must be positive"},
		{"-loss", "1.5", "-loss must be in [0, 1]"},
		{"-loss", "-0.1", "-loss must be in [0, 1]"},
	} {
		var stdout, stderr bytes.Buffer
		code := cmdRun([]string{"-flows", "2", "-series", "-dur", "1", tc.flag, tc.value}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%s %s: exit %d, want 2", tc.flag, tc.value, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s %s: stderr %q does not name the bad flag", tc.flag, tc.value, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: printed results %q", tc.flag, tc.value, stdout.String())
		}
	}
}

// TestRunWritesTrace: a short traced run prints its per-flow lines and
// writes a CSV with both window and loss rows, without a truncation
// warning.
func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	var stdout, stderr bytes.Buffer
	code := cmdRun([]string{"-scheme", "cubic", "-flows", "2", "-dur", "2", "-buf", "0.2", "-trace", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "flow 1: avg=") || !strings.Contains(stdout.String(), "trace events to") {
		t.Fatalf("stdout %q lacks the flow lines or the trace summary", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("stderr %q, want nothing", stderr.String())
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{",cwnd,", ",loss,"} {
		if !strings.Contains(string(csv), kind) {
			t.Errorf("trace CSV has no %s rows", kind)
		}
	}
}

// TestWriteTraceReportsDropped: events past the tracer's cap are gone, and
// the command says how many on stderr instead of silently writing a
// truncated file.
func TestWriteTraceReportsDropped(t *testing.T) {
	tr := &flowtrace.Tracer{Cap: 2}
	for i := 0; i < 5; i++ {
		tr.Record(flowtrace.Event{At: float64(i), Kind: flowtrace.KindCwnd, Value: 10})
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	var stdout, stderr bytes.Buffer
	if err := writeTrace(tr, path, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "wrote 2 trace events") {
		t.Errorf("stdout %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "3 events dropped past the 2-event cap") {
		t.Errorf("stderr %q does not report the 3 dropped events", stderr.String())
	}
	if err := writeTrace(tr, filepath.Join(t.TempDir(), "missing", "t.csv"), &stdout, &stderr); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}

// TestTournamentWritesReport: an in-process tournament writes both report
// files, and what it prints is exactly the table it saves.
func TestTournamentWritesReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var stdout, stderr bytes.Buffer
	code := cmdTournament([]string{"-schemes", "cubic", "-families", "steady", "-flows", "2", "-duration", "0.5", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	txt, err := os.ReadFile(filepath.Join(dir, "tournament.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(txt) {
		t.Errorf("stdout %q differs from tournament.txt %q", stdout.String(), txt)
	}
	js, err := os.ReadFile(filepath.Join(dir, "tournament.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"ranking"`) {
		t.Errorf("tournament.json has no ranking: %s", js)
	}
}

// TestTrainTelemetrySnapshot: -telemetry writes the shared snapshot at
// exit, process gauges included.
func TestTrainTelemetrySnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "t.json")
	var stdout, stderr bytes.Buffer
	code := cmdTrain([]string{"-mode", "distill", "-samples", "200", "-epochs", "1",
		"-out", filepath.Join(dir, "d.json"), "-telemetry", snap}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "process_gomaxprocs") {
		t.Errorf("snapshot lacks process_gomaxprocs: %s", b)
	}
}

// TestResumeRefusesOtherSettings: resuming a checkpoint with -reward,
// -rl-hidden, -episode-duration or -max-flows set to another value than
// the checkpoint's exits 1 before any training, naming the flag and both
// values, through train -resume and through pilot. The same flags set to
// the checkpoint's values resume.
func TestResumeRefusesOtherSettings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.ckpt")
	cfg := core.DefaultConfig()
	cfg.Hidden = []int{8, 8}
	dist := env.DefaultTrainingDistribution()
	dist.EpisodeDuration, dist.MaxFlows = 3, 2
	if err := env.NewParallelLearner(cfg, dist, 1, 1).SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	out, gens := filepath.Join(dir, "actor.json"), filepath.Join(dir, "gens")
	for _, c := range []struct{ flag, value, saved string }{
		{"-reward", "maxmin", "paper"},
		{"-rl-hidden", "16,16", "8,8"},
		{"-episode-duration", "4", "3"},
		{"-max-flows", "3", "2"},
	} {
		for _, args := range [][]string{
			{"train", "-mode", "rl", "-episodes", "1", "-resume", path, "-out", out},
			{"pilot", "-promote", filepath.Join(dir, "serving.policy"), "-dir", gens, "-checkpoint", path},
		} {
			args = append(args, c.flag, c.value)
			var stdout, stderr bytes.Buffer
			if code := dispatch(args, &stdout, &stderr); code != 1 {
				t.Errorf("%v: exit %d, want 1; stderr %q", args, code, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, c.flag+" "+c.saved) || !strings.Contains(msg, c.flag+" "+c.value) {
				t.Errorf("%v: stderr %q does not name %s with both values", args, msg, c.flag)
			}
			if stdout.Len() != 0 {
				t.Errorf("%v: training started: %q", args, stdout.String())
			}
		}
	}
	for _, p := range []string{out, gens} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("a refused resume left %s behind (%v)", p, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := dispatch([]string{"train", "-mode", "rl", "-episodes", "0", "-resume", path, "-out", out,
		"-reward", "paper", "-rl-hidden", "8,8", "-episode-duration", "3", "-max-flows", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("resume under the checkpoint's own settings: exit %d, stderr %q", code, stderr.String())
	}
}
