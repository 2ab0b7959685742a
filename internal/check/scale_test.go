package check

// Scale regression suite for the O(flows) fix pass (incremental invariant
// checking, the transport ring window, the link ring queue, BBR's blind-
// startup ceiling). Three gates:
//
//   - Golden digests pin small fixed incasts bit-for-bit: the scaling work
//     was pure mechanism, so results at 2 and 4 flows must match the
//     pre-fix tree exactly.
//   - A named 500-flow invariant run (TestIncast500FlowInvariants) that
//     ci.sh executes under -race.
//   - An allocation budget at 500 flows, far under the pre-fix cost so a
//     reintroduced per-packet allocation trips it immediately.
//
// Measured on the fix PR (500-flow 0.5 s incast, full checker attached):
// 690.7 ms / 2.08 M allocs / 229 MB before; 29.9 ms / ~80 k allocs /
// ~5 MB after (23× wall-clock, 26× allocs). Unchecked run: 31.5 ms, so
// incremental checking is now effectively free.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/runner"
)

// goldenIncastDigests pin FixedIncast(4242, n, 0.5) bit-for-bit. They were
// captured on the tree *before* the scaling fixes and survived every one of
// them unchanged — the fixes replace data structures and bound pathological
// growth, not behavior at small scale. Update them only with a deliberate,
// documented behavioral change.
var goldenIncastDigests = map[int]uint64{
	2: 0x864b3596c327edae,
	4: 0x4617998b85a82258,
}

func TestFixedIncastGoldenDigests(t *testing.T) {
	for n, want := range goldenIncastDigests {
		sc := FixedIncast(4242, n, 0.5)
		got := digest(runner.MustRun(sc))
		if got != want {
			t.Errorf("FixedIncast flows=%d: digest %#x != golden %#x — results changed bit-for-bit",
				n, got, want)
		}
	}
}

// TestIncast500FlowInvariants runs the full 500-flow fan-in with every
// invariant checked after every event. ci.sh runs exactly this test under
// -race; it is the workload the scaling pass was built for.
func TestIncast500FlowInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("500-flow run; skipped under -short")
	}
	sc := FixedIncast(4242, 500, 0.5)
	c := NewChecker()
	c.Attach(&sc)
	res := runner.MustRun(sc)
	if c.Events() == 0 {
		t.Fatal("checker inspected zero events — harness unhooked")
	}
	for _, v := range c.Finish(res) {
		t.Error(v)
	}
	if n := c.Total(); n > 0 {
		t.Fatalf("%d invariant violations at 500 flows", n)
	}
}

// incastAllocBudget caps heap allocations for one checked 500-flow incast.
// The pre-fix tree needed 2.08M (per-packet map entries in the transport
// window, queue reallocation under bursts, BBR blind-burst amplification);
// the fixed tree needed ~80k, of which ~38k were event-queue storage and
// method values for RTO/pacing timers re-armed by cancel-and-push. With
// timers re-keyed in place the run needed ~42k, and with propagation on
// delay lines instead of two closures per packet per hop it needs ~17k; the
// 25k budget trips if either cost returns.
const incastAllocBudget = 25_000

func TestIncastAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("500-flow run; skipped under -short")
	}
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled packets")
	}
	allocs := testing.AllocsPerRun(1, func() {
		sc := FixedIncast(4242, 500, 0.5)
		c := NewChecker()
		c.Attach(&sc)
		if vs := c.Finish(runner.MustRun(sc)); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
	})
	t.Logf("checked 500-flow incast: %.0f allocations (budget %d)", allocs, incastAllocBudget)
	if allocs > incastAllocBudget {
		t.Fatalf("checked 500-flow incast allocated %.0f objects, budget %d — an O(packets) allocation is back",
			allocs, incastAllocBudget)
	}
}

// BenchmarkIncast measures the checked and unchecked 500-flow incast plus
// the Exhaustive (pre-fix O(flows) per event) checker for comparison:
//
//	flows=100 checked:    31.9 ms before the fix pass, 21.9 ms after
//	flows=500 checked:   690.7 ms before the fix pass, 29.9 ms after (23×)
//	flows=500 unchecked:  31.5 ms (checking adds ~0)
//	flows=500 exhaustive: the surviving O(flows·events) reference point
func BenchmarkIncast(b *testing.B) {
	run := func(b *testing.B, flows int, mode string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := FixedIncast(4242, flows, 0.5)
			switch mode {
			case "unchecked":
				runner.MustRun(sc)
			default:
				c := NewChecker()
				c.Exhaustive = mode == "exhaustive"
				c.Attach(&sc)
				if vs := c.Finish(runner.MustRun(sc)); len(vs) > 0 {
					b.Fatalf("violations: %v", vs)
				}
			}
		}
	}
	for _, flows := range []int{100, 500} {
		b.Run(fmt.Sprintf("flows=%d/checked", flows), func(b *testing.B) { run(b, flows, "checked") })
	}
	b.Run("flows=500/unchecked", func(b *testing.B) { run(b, 500, "unchecked") })
	b.Run("flows=500/exhaustive", func(b *testing.B) { run(b, 500, "exhaustive") })
}

// TestIncastScenarioInvariants sweeps the incast generator family: every
// seed must hold all invariants with hundreds of synchronized senders and
// short response flows tearing down mid-run.
func TestIncastScenarioInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep; run without -short")
	}
	sweepFamily(t, 40, func(seed int64) runner.Scenario {
		return NewGenerator(seed).IncastScenario()
	})
}

// TestOscillatingScenarioInvariants sweeps the square-wave capacity family.
func TestOscillatingScenarioInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep; run without -short")
	}
	sweepFamily(t, 40, func(seed int64) runner.Scenario {
		return NewGenerator(seed).OscillatingScenario()
	})
}

func sweepFamily(t *testing.T, n int, gen func(seed int64) runner.Scenario) {
	t.Helper()
	var mu sync.Mutex
	var all []string
	err := runner.ForEach(n, 0, func(i int) error {
		sc := gen(int64(i))
		c := NewChecker()
		c.Attach(&sc)
		res, err := runner.Run(sc)
		if err != nil {
			return fmt.Errorf("seed %d: %w", i, err)
		}
		if c.Events() == 0 {
			return fmt.Errorf("seed %d: checker inspected zero events", i)
		}
		vs := c.Finish(res)
		if len(vs) > 0 {
			mu.Lock()
			for _, v := range vs {
				all = append(all, fmt.Sprintf("seed %d: %s", i, v))
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		if i >= 20 {
			t.Errorf("... and %d more", len(all)-20)
			break
		}
		t.Error(v)
	}
}

// TestFamilyGeneratorsDeterministic: -seed=N reproduction must hold for the
// new families exactly as it does for the generic scenario draw.
func TestFamilyGeneratorsDeterministic(t *testing.T) {
	for name, gen := range map[string]func(seed int64) runner.Scenario{
		"incast":      func(s int64) runner.Scenario { return NewGenerator(s).IncastScenario() },
		"oscillating": func(s int64) runner.Scenario { return NewGenerator(s).OscillatingScenario() },
	} {
		a := describeScenario(gen(42))
		if b := describeScenario(gen(42)); a != b {
			t.Errorf("%s: same seed produced different scenarios:\n%s\n%s", name, a, b)
		}
		if c := describeScenario(gen(43)); a == c {
			t.Errorf("%s: different seeds produced identical scenarios", name)
		}
	}
}
