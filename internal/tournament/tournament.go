// Package tournament runs every congestion-control scheme through a fixed
// grid of scenario families and ranks them. Each family builds one
// deterministic scenario per scheme — identical topology, seed, and flow
// schedule, only the controller differs — so a cell isolates the scheme's
// contribution. Cells score Utilization × Jain fairness × an RTT penalty
// (BaseRTT/AvgRTT), the three axes the Astraea objective trades off; a
// scheme's standing is its mean score across families. The grid fans
// through runner.RunBatch, so wall-clock scales with cores and results are
// byte-identical for any worker count.
package tournament

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"repro/internal/cc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
)

// ActorSpec enters a pre-trained Astraea policy as a tournament competitor
// under its own name: every flow in the entry's cells runs a core.Agent
// driving the loaded actor network. This is how fairness-lab policies —
// trained under different reward strategies — compete head-to-head with the
// registered schemes and each other.
type ActorSpec struct {
	// Name labels the entry in cells and rankings (e.g. "maxmin").
	Name string
	// Path is a float weight file readable by core.LoadPolicy: JSON
	// weights or a sealed generation artifact.
	Path string
}

// Config parameterizes one tournament.
type Config struct {
	// Schemes to enter; empty means every registered scheme.
	Schemes []string
	// Actors are additional entries backed by trained policy files.
	Actors []ActorSpec
	// Families to run; empty means all (see FamilyNames).
	Families []string
	// Flows per scenario (default 8).
	Flows int
	// Duration of each scenario in seconds (default 5).
	Duration float64
	// Seed offsets every family's scenario seed; the same seed+family pair
	// yields the same network for every scheme.
	Seed int64
	// Workers for the batch pool (<=0 selects GOMAXPROCS).
	Workers int
	// Check attaches the invariant checker to every cell and reports the
	// violation count alongside the scores.
	Check bool

	// actorPolicies holds the loaded actor networks, index-aligned with
	// Actors (populated by normalize).
	actorPolicies []*core.MLPPolicy
}

// Cell is one scheme × family run, scored.
type Cell struct {
	Scheme      string  `json:"scheme"`
	Family      string  `json:"family"`
	Utilization float64 `json:"utilization"`
	Jain        float64 `json:"jain"`
	AvgRTT      float64 `json:"avg_rtt_seconds"`
	BaseRTT     float64 `json:"base_rtt_seconds"`
	LossRate    float64 `json:"loss_rate"`
	Score       float64 `json:"score"`
	Violations  int     `json:"violations,omitempty"`
}

// Standing is one scheme's aggregate position.
type Standing struct {
	Rank   int                `json:"rank"`
	Scheme string             `json:"scheme"`
	Score  float64            `json:"score"` // mean of cell scores
	ByFam  map[string]float64 `json:"by_family"`
}

// Report is a completed tournament. Schemes lists every entry — registered
// schemes first, then actor entries (also named in Actors).
type Report struct {
	Schemes  []string   `json:"schemes"`
	Actors   []string   `json:"actors,omitempty"`
	Families []string   `json:"families"`
	Flows    int        `json:"flows"`
	Duration float64    `json:"duration_seconds"`
	Seed     int64      `json:"seed"`
	Cells    []Cell     `json:"cells"`
	Ranking  []Standing `json:"ranking"`
}

// family builds the scenario a scheme competes on. Every flow runs the
// candidate scheme; the seed pins background randomness (loss, jitter) so
// schemes face identical conditions.
type family struct {
	name  string
	build func(cfg Config, scheme string, seed int64) runner.Scenario
}

// families in declaration order: the grid axis and the report column order.
var families = []family{
	{"incast", func(cfg Config, scheme string, seed int64) runner.Scenario {
		// Many-to-one fan-in on a fast shallow-RTT aggregation link: the
		// scaling workload of this PR, and where loss recovery is decided.
		return check.FixedIncast(seed, cfg.Flows, cfg.Duration, scheme)
	}},
	{"oscillating", func(cfg Config, scheme string, seed int64) runner.Scenario {
		sc := runner.Scenario{
			Seed: seed, RateBps: 40e6, BaseRTT: 0.020, QueueBDP: 2,
			Duration: cfg.Duration,
		}
		sc.Trace = trace.Step(10e6, sc.RateBps, 0.25, sc.Duration)
		addFlows(&sc, cfg.Flows, scheme)
		return sc
	}},
	{"steady", func(cfg Config, scheme string, seed int64) runner.Scenario {
		sc := runner.Scenario{
			Seed: seed, RateBps: 48e6, BaseRTT: 0.030, QueueBDP: 2,
			Duration: cfg.Duration,
		}
		addFlows(&sc, cfg.Flows, scheme)
		return sc
	}},
	{"lossy", func(cfg Config, scheme string, seed int64) runner.Scenario {
		sc := runner.Scenario{
			Seed: seed, RateBps: 24e6, BaseRTT: 0.040, QueueBDP: 1.5,
			LossProb: 0.005, Duration: cfg.Duration,
		}
		addFlows(&sc, cfg.Flows, scheme)
		return sc
	}},
}

func addFlows(sc *runner.Scenario, n int, scheme string) {
	for i := 0; i < n; i++ {
		sc.Flows = append(sc.Flows, runner.FlowSpec{
			Scheme: scheme,
			// Small stagger breaks synchronization artifacts without giving
			// any flow a meaningful head start.
			Start: 0.01 * float64(i%10),
		})
	}
}

// FamilyNames lists the scenario families in grid order.
func FamilyNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

func (c *Config) normalize() error {
	if len(c.Schemes) == 0 {
		c.Schemes = cc.Names()
	}
	for _, s := range c.Schemes {
		if _, err := cc.New(s); err != nil {
			return fmt.Errorf("scheme %q: %w", s, err)
		}
	}
	seen := make(map[string]bool, len(c.Schemes)+len(c.Actors))
	for _, s := range c.Schemes {
		if seen[s] {
			return fmt.Errorf("scheme %q entered twice", s)
		}
		seen[s] = true
	}
	c.actorPolicies = make([]*core.MLPPolicy, len(c.Actors))
	for i, a := range c.Actors {
		if a.Name == "" {
			return fmt.Errorf("actor %d (%s): empty entry name", i, a.Path)
		}
		if seen[a.Name] {
			return fmt.Errorf("actor %q collides with another entry", a.Name)
		}
		seen[a.Name] = true
		mp, _, err := core.LoadPolicy(a.Path, core.DefaultConfig())
		if err != nil {
			return fmt.Errorf("actor %q: %w", a.Name, err)
		}
		c.actorPolicies[i] = mp
	}
	if len(c.Families) == 0 {
		c.Families = FamilyNames()
	}
	known := make(map[string]bool, len(families))
	for _, f := range families {
		known[f.name] = true
	}
	entered := make(map[string]bool, len(c.Families))
	for _, name := range c.Families {
		if !known[name] {
			return fmt.Errorf("unknown family %q (have %v)", name, FamilyNames())
		}
		if entered[name] {
			return fmt.Errorf("family %q entered twice", name)
		}
		entered[name] = true
	}
	if c.Flows <= 0 {
		c.Flows = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5
	}
	return nil
}

// Run executes the scheme × family grid and returns the ranked report.
func Run(cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	byName := make(map[string]family, len(families))
	for _, f := range families {
		byName[f.name] = f
	}

	// entry is one competitor: a registered scheme, or a loaded actor
	// policy entered under its own name.
	type entry struct {
		name   string
		policy *core.MLPPolicy // nil for plain schemes
	}
	entries := make([]entry, 0, len(cfg.Schemes)+len(cfg.Actors))
	for _, s := range cfg.Schemes {
		entries = append(entries, entry{name: s})
	}
	for i, a := range cfg.Actors {
		entries = append(entries, entry{name: a.Name, policy: cfg.actorPolicies[i]})
	}

	type job struct {
		scheme, fam string
		baseRTT     float64
	}
	var jobs []job
	var scenarios []runner.Scenario
	var checkers []*check.Checker
	for fi, famName := range cfg.Families {
		fam := byName[famName]
		// Seed depends on the family, not the scheme: every scheme competes
		// on the identical draw.
		seed := cfg.Seed + int64(fi)*1000
		for _, e := range entries {
			// Actor entries reuse a registered scheme's scenario skeleton —
			// topology, seed, and flow schedule are scheme-independent —
			// then swap every flow's controller for an agent driving the
			// loaded policy. One policy clone per scenario: the MLP forward
			// pass shares scratch buffers, and batch cells run concurrently.
			buildScheme := e.name
			if e.policy != nil {
				buildScheme = cfg.Schemes[0]
			}
			sc := fam.build(cfg, buildScheme, seed)
			if e.policy != nil {
				p := core.ClonePolicy(e.policy)
				for i := range sc.Flows {
					sc.Flows[i].Scheme = ""
					sc.Flows[i].CC = core.NewAgent(core.DefaultConfig(), p)
				}
			}
			var ck *check.Checker
			if cfg.Check {
				ck = check.NewChecker()
				ck.Attach(&sc)
			}
			jobs = append(jobs, job{scheme: e.name, fam: famName, baseRTT: sc.BaseRTT})
			scenarios = append(scenarios, sc)
			checkers = append(checkers, ck)
		}
	}

	results, err := runner.RunBatch(scenarios, cfg.Workers)
	if err != nil {
		return nil, err
	}

	entryNames := make([]string, len(entries))
	for i, e := range entries {
		entryNames[i] = e.name
	}
	actorNames := make([]string, len(cfg.Actors))
	for i, a := range cfg.Actors {
		actorNames[i] = a.Name
	}
	rep := &Report{
		Schemes: entryNames, Actors: actorNames, Families: cfg.Families,
		Flows: cfg.Flows, Duration: cfg.Duration, Seed: cfg.Seed,
	}
	for i, res := range results {
		cell := scoreResult(res, jobs[i].scheme, jobs[i].fam, jobs[i].baseRTT)
		if ck := checkers[i]; ck != nil {
			ck.Finish(res)
			cell.Violations = ck.Total()
		}
		rep.Cells = append(rep.Cells, cell)
	}
	rep.rank()
	return rep, nil
}

// scoreResult folds one finished scenario into a scored cell — the single
// metric pipeline shared by the tournament grid and the regression gate, so
// a policy is judged by exactly the same arithmetic in both.
func scoreResult(res *runner.Result, scheme, fam string, baseRTT float64) Cell {
	cell := Cell{Scheme: scheme, Family: fam, BaseRTT: baseRTT}
	cell.Utilization = res.Utilization
	tputs := make([]float64, len(res.Flows))
	var delivered, lost int64
	var rttSum float64
	var rttN int
	for j, fr := range res.Flows {
		tputs[j] = fr.AvgTputBps
		delivered += fr.DeliveredBytes
		lost += fr.LostBytes
		if fr.AvgRTT > 0 {
			rttSum += fr.AvgRTT
			rttN++
		}
	}
	cell.Jain = metrics.Jain(tputs)
	if rttN > 0 {
		cell.AvgRTT = rttSum / float64(rttN)
	}
	if tot := delivered + lost; tot > 0 {
		cell.LossRate = float64(lost) / float64(tot)
	}
	cell.Score = score(cell)
	return cell
}

// score folds a cell into one number: throughput × fairness × delay, the
// Astraea reward axes. The RTT penalty is BaseRTT/AvgRTT — 1.0 for an empty
// queue, shrinking as standing queues inflate delay — clamped to [0,1] so
// sampling noise cannot reward a sub-propagation artifact.
func score(c Cell) float64 {
	if c.AvgRTT <= 0 {
		return 0 // no acked data: the scheme did not function at all
	}
	rttPenalty := c.BaseRTT / c.AvgRTT
	if rttPenalty > 1 {
		rttPenalty = 1
	}
	util := c.Utilization
	if util > 1 {
		util = 1
	}
	s := util * c.Jain * rttPenalty
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	return s
}

// rank aggregates cells into per-scheme standings sorted by mean score
// (ties broken by name so the report is deterministic).
func (r *Report) rank() {
	agg := make(map[string]*Standing, len(r.Schemes))
	for _, s := range r.Schemes {
		agg[s] = &Standing{Scheme: s, ByFam: make(map[string]float64, len(r.Families))}
	}
	for _, c := range r.Cells {
		st := agg[c.Scheme]
		st.ByFam[c.Family] = c.Score
		st.Score += c.Score
	}
	n := float64(len(r.Families))
	r.Ranking = r.Ranking[:0]
	for _, s := range r.Schemes {
		st := agg[s]
		if n > 0 {
			st.Score /= n
		}
		r.Ranking = append(r.Ranking, *st)
	}
	sort.SliceStable(r.Ranking, func(i, j int) bool {
		if r.Ranking[i].Score != r.Ranking[j].Score {
			return r.Ranking[i].Score > r.Ranking[j].Score
		}
		return r.Ranking[i].Scheme < r.Ranking[j].Scheme
	})
	for i := range r.Ranking {
		r.Ranking[i].Rank = i + 1
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable emits the ranked standings and the full cell grid as text.
func (r *Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rank\tscheme\tscore")
	for _, fam := range r.Families {
		fmt.Fprintf(tw, "\t%s", fam)
	}
	fmt.Fprintln(tw)
	for _, st := range r.Ranking {
		fmt.Fprintf(tw, "%d\t%s\t%.4f", st.Rank, st.Scheme, st.Score)
		for _, fam := range r.Families {
			fmt.Fprintf(tw, "\t%.4f", st.ByFam[fam])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "scheme\tfamily\tutil\tjain\tavg_rtt_ms\tloss\tscore\tviolations")
	for _, c := range r.Cells {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.2f\t%.4f\t%.4f\t%d\n",
			c.Scheme, c.Family, c.Utilization, c.Jain, c.AvgRTT*1000, c.LossRate, c.Score, c.Violations)
	}
	return tw.Flush()
}
