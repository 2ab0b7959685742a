package pilot

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
)

func storeActor(t *testing.T, seed int64) *nn.MLP {
	t.Helper()
	cfg := core.DefaultConfig()
	return nn.NewMLP(rand.New(rand.NewSource(seed)), nn.ReLU, nn.Tanh, cfg.StateDim(), 4, 1)
}

// TestStoreLineage: commits chain generations, the manifest survives a
// reopen, rollback restores the parent and marks the evicted generation,
// and a rolled-back store commits the next generation onto the restored
// parent (the bad lineage is abandoned, not resumed).
func TestStoreLineage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Current(); ok {
		t.Fatal("empty store has a current generation")
	}

	g1, err := s.Commit(storeActor(t, 1), core.PolicyMeta{Note: "boot"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Commit(storeActor(t, 2), core.PolicyMeta{Episodes: 50}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Gen != 1 || g2.Gen != 2 || g2.Parent != 1 {
		t.Fatalf("lineage: %+v %+v", g1, g2)
	}

	// The sealed artifact is loadable and carries the store-assigned meta.
	_, meta, err := core.LoadPolicy(s.Path(g2), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 2 || meta.Parent != 1 || meta.CreatedUnix != 2000 || meta.Episodes != 50 {
		t.Fatalf("artifact meta %+v", meta)
	}

	// Reopen: the manifest round-trips.
	s2, err := OpenStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	cur, ok := s2.Current()
	if !ok || cur.Gen != 2 || cur.Status != StatusServing {
		t.Fatalf("reopened current %+v ok=%v", cur, ok)
	}

	// Rollback: parent serves again, the evicted generation is marked, its
	// artifact file stays for post-mortem.
	prev, ok, err := s2.Rollback()
	if err != nil || !ok || prev.Gen != 1 {
		t.Fatalf("rollback: %+v ok=%v err=%v", prev, ok, err)
	}
	gens := s2.Generations()
	if gens[0].Status != StatusServing || gens[1].Status != StatusRolledBack {
		t.Fatalf("statuses after rollback: %+v", gens)
	}
	if _, err := os.Stat(s2.Path(gens[1])); err != nil {
		t.Fatalf("evicted artifact deleted: %v", err)
	}

	// The next commit descends from the restored parent, not the evicted
	// generation, and takes a fresh generation number.
	g3, err := s2.Commit(storeActor(t, 3), core.PolicyMeta{}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if g3.Gen != 3 || g3.Parent != 1 {
		t.Fatalf("post-rollback commit %+v", g3)
	}

	// Rolling back to before the first promotion reports no landing place.
	if _, ok, err := s2.Rollback(); err != nil || !ok {
		t.Fatalf("rollback to boot: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s2.Rollback(); err != nil || ok {
		t.Fatalf("rollback past boot should report no parent: ok=%v err=%v", ok, err)
	}
}

// TestStorePruneBounded: history is bounded at keep generations, with the
// serving generation and its parent always surviving.
func TestStorePruneBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	var all []Generation
	for i := 0; i < 6; i++ {
		g, err := s.Commit(storeActor(t, int64(i)), core.PolicyMeta{}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, g)
	}
	gens := s.Generations()
	if len(gens) != 3 {
		t.Fatalf("kept %d generations, want 3: %+v", len(gens), gens)
	}
	// Newest three survive (6 serving, 5 its parent, 4 by keep budget).
	for i, want := range []uint64{4, 5, 6} {
		if gens[i].Gen != want {
			t.Fatalf("kept %+v", gens)
		}
	}
	// Pruned artifacts are gone from disk; kept ones remain.
	for _, g := range all[:3] {
		if _, err := os.Stat(s.Path(g)); !os.IsNotExist(err) {
			t.Fatalf("generation %d not pruned", g.Gen)
		}
	}
	for _, g := range gens {
		if _, err := os.Stat(s.Path(g)); err != nil {
			t.Fatalf("generation %d missing: %v", g.Gen, err)
		}
	}
	// The manifest on disk matches (prune persisted atomically).
	s2, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Generations(); len(got) != 3 {
		t.Fatalf("reopened kept %d", len(got))
	}
}

// TestStoreCorruptManifestRefused: a garbled manifest is a hard error, not
// a silent re-initialization that would orphan the lineage.
func TestStoreCorruptManifestRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, 3); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}
