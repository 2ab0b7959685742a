package check

// Differential proof for the incremental checker: dirty-flow checking must
// reach the same verdict as the original check-every-flow-every-event scan.
// Equality is on the *set of violated rules* — the exhaustive scan
// re-observes a persistent breach on every subsequent event, so raw counts
// differ by design, but a rule either fired for a run or it did not.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"

	"repro/internal/netem"
)

// ruleSet reduces a checker's findings to the sorted set of violated rules.
func ruleSet(c *Checker) []string {
	seen := map[string]bool{}
	for _, v := range c.Violations() {
		seen[v.Rule] = true
	}
	rules := make([]string, 0, len(seen))
	for r := range seen {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	return rules
}

// runChecked runs sc under a fresh checker, mutate (optional) getting a
// chance to sabotage the wiring after Attach. Returns the finished checker.
func runChecked(sc runner.Scenario, exhaustive bool, mutate func(*runner.Scenario, *Checker)) (*Checker, error) {
	c := NewChecker()
	c.Exhaustive = exhaustive
	c.Attach(&sc)
	if mutate != nil {
		mutate(&sc, c)
	}
	res, err := runner.Run(sc)
	if err != nil {
		return nil, err
	}
	c.Finish(res)
	return c, nil
}

// TestIncrementalCheckerDifferential runs the full invariant sweep twice —
// incremental and exhaustive — and requires identical verdicts on every
// seed. This is the proof that replacing the O(flows) per-event scan was a
// pure optimization.
func TestIncrementalCheckerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep; run without -short")
	}
	var mu sync.Mutex
	var diffs []string
	err := runner.ForEach(sweepSize, 0, func(i int) error {
		sc := NewGenerator(int64(i)).Scenario()
		inc, err := runChecked(sc, false, nil)
		if err != nil {
			return fmt.Errorf("seed %d: %w", i, err)
		}
		exh, err := runChecked(sc, true, nil)
		if err != nil {
			return fmt.Errorf("seed %d: %w", i, err)
		}
		a, b := ruleSet(inc), ruleSet(exh)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			mu.Lock()
			diffs = append(diffs, fmt.Sprintf("seed %d: incremental verdict %v != exhaustive %v", i, a, b))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
}

// sabotagedIncast is a two-flow scenario where flow 0 stops halfway,
// leaving a window where no hook of its will ever fire again.
func sabotagedIncast() runner.Scenario {
	return runner.Scenario{
		Seed: 7, RateBps: 20e6, BaseRTT: 0.020, QueueBDP: 2, Duration: 2,
		Flows: []runner.FlowSpec{
			{Scheme: "cubic", Duration: 0.8},
			{Scheme: "reno"},
		},
	}
}

// corruptVia wires a sabotage that corrupts flow 0's conservation identity
// through the given trigger; both checker modes must convict.
func TestIncrementalCheckerCatchesHookedCorruption(t *testing.T) {
	// Corruption at an ack: the flow is dirty at that very event, so the
	// incremental checker must catch it during the run just like the
	// exhaustive one.
	for _, exhaustive := range []bool{false, true} {
		c, err := runChecked(sabotagedIncast(), exhaustive, func(sc *runner.Scenario, c *Checker) {
			prev := sc.OnFlowCreated
			sc.OnFlowCreated = func(i int, f *transport.Flow) {
				prev(i, f)
				if i != 0 {
					return
				}
				f.Observe(transport.FlowObserver{Ack: func(transport.AckEvent) {
					f.DeliveredBytes += 7 // break conservation right before the check
				}})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		rules := ruleSet(c)
		if fmt.Sprint(rules) != "[flow-conservation]" {
			t.Errorf("exhaustive=%v: verdict %v, want [flow-conservation]", exhaustive, rules)
		}
	}
}

func TestIncrementalCheckerCatchesHooklessCorruption(t *testing.T) {
	// Corruption with no hook at all: a raw simulator event mutates flow 0's
	// totals at t=1.5, after the flow stopped at t=0.8 — no send, ack, loss
	// or cwnd hook of flow 0 will ever run again, so dirty-marking can never
	// see it. The Finish sweep is what must convict; the exhaustive mode
	// convicts from the event stream. Same verdict either way.
	for _, exhaustive := range []bool{false, true} {
		var f0 *transport.Flow
		c, err := runChecked(sabotagedIncast(), exhaustive, func(sc *runner.Scenario, c *Checker) {
			prevFlow := sc.OnFlowCreated
			sc.OnFlowCreated = func(i int, f *transport.Flow) {
				prevFlow(i, f)
				if i == 0 {
					f0 = f
				}
			}
			prevProbe := sc.Probe
			sc.Probe = func(s *sim.Simulator, d *netem.Dumbbell) {
				prevProbe(s, d)
				s.After(1.5, func() { f0.DeliveredBytes += 12345 })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		rules := ruleSet(c)
		if fmt.Sprint(rules) != "[flow-conservation]" {
			t.Errorf("exhaustive=%v: verdict %v, want [flow-conservation]", exhaustive, rules)
		}
	}
}
