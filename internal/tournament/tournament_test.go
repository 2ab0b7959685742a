package tournament

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/nn"
)

// small returns a grid trimmed for test wall-clock but still covering every
// registered scheme.
func small() Config {
	return Config{Families: []string{"incast", "oscillating"}, Flows: 3, Duration: 0.4, Seed: 9}
}

func TestTournamentCoversAllRegisteredSchemes(t *testing.T) {
	rep, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	all := cc.Names()
	if len(rep.Ranking) != len(all) {
		t.Fatalf("ranking has %d schemes, registry has %d", len(rep.Ranking), len(all))
	}
	ranked := make(map[string]bool, len(rep.Ranking))
	for i, st := range rep.Ranking {
		ranked[st.Scheme] = true
		if st.Rank != i+1 {
			t.Errorf("standing %d has rank %d", i, st.Rank)
		}
		if i > 0 && st.Score > rep.Ranking[i-1].Score {
			t.Errorf("ranking not sorted: %q (%.4f) after %q (%.4f)",
				st.Scheme, st.Score, rep.Ranking[i-1].Scheme, rep.Ranking[i-1].Score)
		}
	}
	for _, s := range all {
		if !ranked[s] {
			t.Errorf("registered scheme %q missing from ranking", s)
		}
	}
	if want := len(all) * len(rep.Families); len(rep.Cells) != want {
		t.Fatalf("cells: %d, want schemes × families = %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.Score < 0 || c.Score > 1 {
			t.Errorf("cell %s/%s score %.4f outside [0,1]", c.Scheme, c.Family, c.Score)
		}
	}
}

func TestTournamentDeterministic(t *testing.T) {
	cfg := small()
	cfg.Schemes = []string{"cubic", "bbr", "vegas"}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := small()
	cfg2.Schemes = []string{"cubic", "bbr", "vegas"}
	cfg2.Workers = 3
	b, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("same config produced different reports across worker counts")
	}
}

func TestTournamentCheckedCellsHoldInvariants(t *testing.T) {
	cfg := small()
	cfg.Schemes = []string{"cubic", "reno"}
	cfg.Check = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Violations != 0 {
			t.Errorf("cell %s/%s: %d invariant violations", c.Scheme, c.Family, c.Violations)
		}
	}
}

// savedActor writes a small random-but-valid policy file and returns its
// path (standing in for a fairness-lab trained actor).
func savedActor(t *testing.T, seed int64) string {
	t.Helper()
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, nn.ReLU, nn.Tanh, cfg.StateDim(), 8, 1)
	path := filepath.Join(t.TempDir(), "actor.json")
	if err := core.SavePolicy(path, net); err != nil {
		t.Fatal(err)
	}
	return path
}

// An actor entry competes in every family under its own name, alongside the
// registered schemes, and lands in the ranking like any other entry.
func TestTournamentActorEntries(t *testing.T) {
	cfg := small()
	cfg.Schemes = []string{"cubic", "reno"}
	cfg.Actors = []ActorSpec{{Name: "lab-maxmin", Path: savedActor(t, 4)}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(rep.Families); len(rep.Cells) != want {
		t.Fatalf("cells: %d, want entries × families = %d", len(rep.Cells), want)
	}
	if len(rep.Actors) != 1 || rep.Actors[0] != "lab-maxmin" {
		t.Fatalf("report actors = %v, want [lab-maxmin]", rep.Actors)
	}
	var actorCells int
	found := false
	for _, st := range rep.Ranking {
		if st.Scheme == "lab-maxmin" {
			found = true
			if len(st.ByFam) != len(rep.Families) {
				t.Errorf("actor scored %d families, want %d", len(st.ByFam), len(rep.Families))
			}
		}
	}
	if !found {
		t.Fatal("actor entry missing from ranking")
	}
	for _, c := range rep.Cells {
		if c.Scheme != "lab-maxmin" {
			continue
		}
		actorCells++
		if c.Score < 0 || c.Score > 1 {
			t.Errorf("actor cell %s score %.4f outside [0,1]", c.Family, c.Score)
		}
	}
	if actorCells != len(rep.Families) {
		t.Fatalf("actor has %d cells, want one per family (%d)", actorCells, len(rep.Families))
	}
}

// Actor cells must be byte-deterministic across worker counts, like scheme
// cells: each scenario gets its own policy clone, so concurrency must not
// leak through shared network scratch.
func TestTournamentActorDeterministic(t *testing.T) {
	path := savedActor(t, 6)
	run := func(workers int) []byte {
		cfg := small()
		cfg.Schemes = []string{"cubic"}
		cfg.Actors = []ActorSpec{{Name: "lab", Path: path}}
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(1), run(4); !bytes.Equal(a, b) {
		t.Fatal("actor cells differ across worker counts")
	}
}

func TestTournamentActorValidation(t *testing.T) {
	path := savedActor(t, 8)
	if _, err := Run(Config{Schemes: []string{"cubic"},
		Actors: []ActorSpec{{Name: "", Path: path}}}); err == nil {
		t.Error("actor with empty name accepted")
	}
	if _, err := Run(Config{Schemes: []string{"cubic"},
		Actors: []ActorSpec{{Name: "cubic", Path: path}}}); err == nil {
		t.Error("actor colliding with a scheme name accepted")
	}
	if _, err := Run(Config{Schemes: []string{"cubic"}, Actors: []ActorSpec{
		{Name: "a", Path: path}, {Name: "a", Path: path}}}); err == nil {
		t.Error("duplicate actor names accepted")
	}
	if _, err := Run(Config{Schemes: []string{"cubic"},
		Actors: []ActorSpec{{Name: "a", Path: filepath.Join(t.TempDir(), "missing.json")}}}); err == nil {
		t.Error("actor with unreadable weight file accepted")
	}
}

func TestTournamentRejectsUnknownInput(t *testing.T) {
	if _, err := Run(Config{Schemes: []string{"nope"}}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Run(Config{Families: []string{"nope"}}); err == nil {
		t.Error("unknown family accepted")
	}
}

// A repeated scheme would share one standing between its copies (summed
// twice, then divided once per copy), and a repeated family would print
// its column twice: both must be refused up front, by name.
func TestTournamentRejectsRepeatedEntries(t *testing.T) {
	_, err := Run(Config{Schemes: []string{"cubic", "cubic", "reno"},
		Families: []string{"steady"}, Flows: 2, Duration: 0.5})
	if err == nil || !strings.Contains(err.Error(), `"cubic"`) {
		t.Errorf("repeated scheme: err = %v, want one naming cubic", err)
	}
	_, err = Run(Config{Schemes: []string{"cubic"},
		Families: []string{"steady", "lossy", "steady"}, Flows: 2, Duration: 0.5})
	if err == nil || !strings.Contains(err.Error(), `"steady"`) {
		t.Errorf("repeated family: err = %v, want one naming steady", err)
	}
}
