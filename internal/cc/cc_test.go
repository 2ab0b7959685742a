package cc

import "testing"

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"astraea", "aurora", "bbr", "copa", "cubic", "orca", "remy", "reno", "vegas", "vivace", "vivace-enhanced"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry has %v, want %v", names, want)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("nosuch"); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("nosuch")
}

func TestInstancesAreIndependent(t *testing.T) {
	a := MustNew("cubic")
	b := MustNew("cubic")
	if a == b {
		t.Fatal("factory returned a shared instance")
	}
}

func TestEachSchemeHasStableName(t *testing.T) {
	for _, n := range Names() {
		c := MustNew(n)
		// vivace-enhanced reports "vivace": it is the same algorithm with a
		// different knob setting.
		if c.Name() != n && !(n == "vivace-enhanced" && c.Name() == "vivace") {
			t.Errorf("scheme %q reports Name() = %q", n, c.Name())
		}
	}
}
