package serve

import (
	"encoding/json"
	"testing"
	"time"
)

func TestRunLoadAgainstHealthyServer(t *testing.T) {
	_, addr := newTestServer(t, constPolicy{0.5}, Options{Deadline: time.Second}, nil)
	sum, err := RunLoad(LoadOptions{
		Network:  "tcp",
		Address:  addr,
		Rate:     2000,
		Duration: 300 * time.Millisecond,
		Conns:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed requests: %d", sum.Failed)
	}
	if sum.Responses == 0 || sum.Responses != sum.Requests {
		t.Fatalf("requests %d responses %d", sum.Requests, sum.Responses)
	}
	if sum.AchievedRPS <= 0 || sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms {
		t.Fatalf("implausible summary: %+v", sum)
	}
	if sum.MinVersion != 1 || sum.MaxVersion != 1 {
		t.Fatalf("versions %d..%d, want 1..1", sum.MinVersion, sum.MaxVersion)
	}
	if sum.String() == "" {
		t.Fatal("empty human summary")
	}
	// The summary must stay JSON-encodable: `astraea loadgen` prints it as JSON.
	if _, err := json.Marshal(sum); err != nil {
		t.Fatal(err)
	}
}

// TestRunLoadCountsFallbacks: against a slow policy with a tight deadline,
// the loadgen reports fallbacks, not failures — the contract that senders
// always get a safe answer.
func TestRunLoadCountsFallbacks(t *testing.T) {
	policy := &slowPolicy{delay: 100 * time.Millisecond, v: 0.5}
	_, addr := newTestServer(t, policy,
		Options{QueueDepth: 16, Deadline: 2 * time.Millisecond}, nil)
	sum, err := RunLoad(LoadOptions{
		Network:  "tcp",
		Address:  addr,
		Rate:     500,
		Duration: 200 * time.Millisecond,
		Conns:    2,
		Timeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed requests: %d (fallbacks should not be failures)", sum.Failed)
	}
	if sum.Fallbacks == 0 {
		t.Fatal("no fallbacks recorded against a slow policy")
	}
	if sum.FallbackRate <= 0 || sum.FallbackRate > 1 {
		t.Fatalf("fallback rate %v", sum.FallbackRate)
	}
}

// TestRunLoadClosedLoop: Rate is ignored, senders run back-to-back for the
// whole duration, and the summary reports saturation throughput.
func TestRunLoadClosedLoop(t *testing.T) {
	_, addr := newTestServer(t, constPolicy{0.5}, Options{Shards: 2, Deadline: time.Second}, nil)
	sum, err := RunLoad(LoadOptions{
		Network:     "tcp",
		Address:     addr,
		ClosedLoop:  true,
		Duration:    200 * time.Millisecond,
		Conns:       2,
		Outstanding: 4,
		TagFlows:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.TargetRPS != 0 {
		t.Fatalf("closed-loop summary reports target %v, want 0", sum.TargetRPS)
	}
	if sum.Failed != 0 || sum.Responses == 0 {
		t.Fatalf("responses %d, failed %d", sum.Responses, sum.Failed)
	}
	if sum.AchievedRPS <= 0 {
		t.Fatalf("achieved %v req/s under saturation", sum.AchievedRPS)
	}
	if sum.Conns != 2 || sum.Outstanding != 4 {
		t.Fatalf("concurrency not recorded: %+v", sum)
	}
}

// TestOpenLoopLatencyIncludesSchedulingLag: with one sender and a policy
// far slower than the schedule interval, the generator must fall behind and
// say so (MaxSchedLagMs), and the recorded latencies — measured from each
// request's *intended* send time — must absorb that lag instead of hiding
// it (the coordinated-omission correction).
func TestOpenLoopLatencyIncludesSchedulingLag(t *testing.T) {
	policy := &slowPolicy{delay: 30 * time.Millisecond, v: 0.5}
	_, addr := newTestServer(t, policy, Options{Deadline: time.Second}, nil)
	sum, err := RunLoad(LoadOptions{
		Network:     "tcp",
		Address:     addr,
		Rate:        200, // 5ms cadence against a 30ms server: hopeless
		Duration:    300 * time.Millisecond,
		Conns:       1,
		Outstanding: 1,
		Timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed requests: %d", sum.Failed)
	}
	if sum.MaxSchedLagMs <= 0 {
		t.Fatal("generator kept schedule against a 6x-oversubscribed server; lag not measured")
	}
	// The worst latency must reflect accumulated schedule debt, not just
	// one service time: by the last request the sender is many intervals
	// behind, so from-intended-time latency far exceeds the 30ms service.
	if sum.MaxMs < 60 {
		t.Fatalf("max latency %.1fms hides scheduling lag (service time 30ms)", sum.MaxMs)
	}
}

// TestRunKneeFindsSaturation runs a miniature sweep and checks the knee
// invariants: a positive knee within the tried steps, at no more than the
// best observed throughput, with provenance captured.
func TestRunKneeFindsSaturation(t *testing.T) {
	_, addr := newTestServer(t, constPolicy{0.5}, Options{Shards: 2, QueueDepth: 4096, Deadline: time.Second}, nil)
	rep, err := RunKnee(KneeOptions{
		Network:        "tcp",
		Address:        addr,
		Conns:          2,
		StepDuration:   100 * time.Millisecond,
		MaxOutstanding: 8,
		TagFlows:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) == 0 {
		t.Fatal("no sweep steps recorded")
	}
	if rep.AchievedRPS <= 0 || rep.KneeOutstanding <= 0 {
		t.Fatalf("no knee found: %+v", rep)
	}
	if rep.AchievedRPS > rep.MaxRPS {
		t.Fatalf("knee %v req/s exceeds max %v", rep.AchievedRPS, rep.MaxRPS)
	}
	if rep.AchievedRPS < kneeFraction*rep.MaxRPS {
		t.Fatalf("knee %v req/s below %v of max %v", rep.AchievedRPS, kneeFraction, rep.MaxRPS)
	}
	if rep.Env.GoMaxProcs <= 0 || rep.Env.GoVersion == "" || rep.Env.Timestamp == "" {
		t.Fatalf("environment provenance missing: %+v", rep.Env)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
}
