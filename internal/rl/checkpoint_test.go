package rl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ckpt"
)

func randomTransition(rnd *rand.Rand, stateDim, globalDim int) Transition {
	vec := func(n int) []float64 {
		if n == 0 {
			return nil
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rnd.NormFloat64()
		}
		return v
	}
	return Transition{
		Global:     vec(globalDim),
		State:      vec(stateDim),
		Action:     vec(1),
		Reward:     rnd.NormFloat64(),
		NextGlobal: vec(globalDim),
		NextState:  vec(stateDim),
		Done:       rnd.Intn(4) == 0,
	}
}

// Property test: replay rings of random fill levels — empty, partial, and
// wrapped — round-trip exactly, including eviction-cursor position, and the
// decoded ring then evicts in the same order as the original: the same
// further adds leave both holding the same transitions in the same slots.
func TestReplayCodecRoundTripProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rnd.Intn(50)
		rb := NewReplayBuffer(capacity)
		adds := rnd.Intn(3 * capacity) // 0 .. beyond wrap
		for i := 0; i < adds; i++ {
			rb.Add(randomTransition(rnd, 1+rnd.Intn(4), rnd.Intn(3)))
		}
		e := &ckpt.Encoder{}
		rb.Encode(e)
		d := ckpt.NewDecoder(e.Payload())
		rb2, err := DecodeReplayBuffer(d)
		if err != nil {
			t.Fatalf("trial %d (cap %d, adds %d): %v", trial, capacity, adds, err)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rb2.Len() != rb.Len() || rb2.next != rb.next || rb2.full != rb.full || rb2.capacity != rb.capacity {
			t.Fatalf("trial %d: geometry mismatch", trial)
		}
		live := rb.Len()
		for i := 0; i < live; i++ {
			if !reflect.DeepEqual(rb.buf[i], rb2.buf[i]) {
				t.Fatalf("trial %d: transition %d mutated", trial, i)
			}
		}
		for i, more := 0, 1+rnd.Intn(2*capacity); i < more; i++ {
			tr := randomTransition(rnd, 2, 1)
			rb.Add(tr)
			rb2.Add(tr)
		}
		if !reflect.DeepEqual(rb.buf, rb2.buf) || rb2.next != rb.next || rb2.full != rb.full {
			t.Fatalf("trial %d: decoded ring evicts in a different order", trial)
		}
	}
}

// A replay payload's geometry is attacker-controlled, and the ring is sized
// by what decodes, not by what the payload declares. A 25-byte payload
// (capacity 2^40, cursor 0, not wrapped, no transitions) used to allocate
// the whole declared ring up front and kill the process with an
// out-of-memory fatal error no recover catches; it must decode to an empty
// ring that works. The same capacity claimed full must fail on its first
// missing transition, having allocated nothing for the rest.
func TestDecodeReplayHostileCapacity(t *testing.T) {
	const capacity = 1 << 40
	empty := &ckpt.Encoder{}
	empty.Int64(capacity)
	empty.Int(0)
	empty.Bool(false)
	empty.Int(0)
	if n := len(empty.Payload()); n != 25 {
		t.Fatalf("payload is %d bytes, want 25", n)
	}
	rb, err := DecodeReplayBuffer(ckpt.NewDecoder(empty.Payload()))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len() != 0 || rb.capacity != capacity || cap(rb.buf) != 0 {
		t.Fatalf("decoded ring holds %d of %d, %d slots allocated", rb.Len(), rb.capacity, cap(rb.buf))
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		rb.Add(randomTransition(rnd, 2, 1))
	}
	if rb.Len() != 100 || cap(rb.buf) > 128 {
		t.Fatalf("after 100 adds: %d held, %d slots allocated", rb.Len(), cap(rb.buf))
	}
	rb.Sample(rnd, 8, nil)

	full := &ckpt.Encoder{}
	full.Int64(capacity)
	full.Int(0)
	full.Bool(true)
	full.Int64(capacity)
	if _, err := DecodeReplayBuffer(ckpt.NewDecoder(full.Payload())); err == nil {
		t.Fatal("a full 2^40-slot ring with no transitions decoded")
	}
}

// Trainer round trip: a trainer that has performed real updates must decode
// into one that continues the exact update stream — same batch samples,
// same target noise, same delayed-actor schedule — yielding bitwise-equal
// actor weights after further updates on both sides.
func TestTrainerCodecRoundTripContinuesTraining(t *testing.T) {
	cfg := DefaultConfig(3, 2, 1)
	cfg.Hidden = []int{12, 8}
	cfg.Batch = 16
	tr := NewTrainer(cfg, 77)
	rb := NewReplayBuffer(500)
	rnd := rand.New(rand.NewSource(78))
	for i := 0; i < 200; i++ {
		rb.Add(randomTransition(rnd, 3, 2))
	}
	for i := 0; i < 25; i++ {
		tr.Update(rb)
	}

	e := &ckpt.Encoder{}
	tr.Encode(e)
	rb.Encode(e)
	d := ckpt.NewDecoder(e.Payload())
	tr2, err := DecodeTrainer(d)
	if err != nil {
		t.Fatal(err)
	}
	rb2, err := DecodeReplayBuffer(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr2.Cfg, cfg) {
		t.Fatalf("config mutated: %+v vs %+v", tr2.Cfg, cfg)
	}
	if tr2.updates != tr.updates {
		t.Fatalf("update counter %d != %d", tr2.updates, tr.updates)
	}

	// Continue both sides through more updates, including delayed actor
	// updates and soft target updates, then compare the actors bitwise.
	for i := 0; i < 25; i++ {
		tr.Update(rb)
		tr2.Update(rb2)
	}
	assertActorsBitwiseEqual(t, tr, tr2)
}

func assertActorsBitwiseEqual(t *testing.T, a, b *Trainer) {
	t.Helper()
	for li, la := range a.Actor.Layers {
		lb := b.Actor.Layers[li]
		for i := range la.W {
			if math.Float64bits(la.W[i]) != math.Float64bits(lb.W[i]) {
				t.Fatalf("actor layer %d weight %d: %v != %v", li, i, la.W[i], lb.W[i])
			}
		}
		for i := range la.B {
			if math.Float64bits(la.B[i]) != math.Float64bits(lb.B[i]) {
				t.Fatalf("actor layer %d bias %d: %v != %v", li, i, la.B[i], lb.B[i])
			}
		}
	}
}

func TestDecodeTrainerRejectsCorruptPayload(t *testing.T) {
	cfg := DefaultConfig(2, 1, 1)
	cfg.Hidden = []int{6}
	tr := NewTrainer(cfg, 5)
	e := &ckpt.Encoder{}
	tr.Encode(e)
	payload := e.Payload()
	// Truncation at several depths: inside the config, inside a network,
	// inside the optimizers.
	for _, n := range []int{0, 8, 40, len(payload) / 3, len(payload) - 8} {
		if _, err := DecodeTrainer(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDecodeReplayRejectsBadGeometry(t *testing.T) {
	rb := NewReplayBuffer(8)
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		rb.Add(randomTransition(rnd, 2, 1))
	}
	good := &ckpt.Encoder{}
	rb.Encode(good)

	// Claim more live transitions than the cursor implies.
	bad := &ckpt.Encoder{}
	bad.Int(8) // capacity
	bad.Int(5) // next
	bad.Bool(false)
	bad.Int(7) // live — inconsistent with next=5, full=false
	if _, err := DecodeReplayBuffer(ckpt.NewDecoder(bad.Payload())); err == nil {
		t.Fatal("inconsistent live count accepted")
	}

	// Cursor out of range.
	bad = &ckpt.Encoder{}
	bad.Int(8)
	bad.Int(9)
	bad.Bool(false)
	bad.Int(0)
	if _, err := DecodeReplayBuffer(ckpt.NewDecoder(bad.Payload())); err == nil {
		t.Fatal("out-of-range cursor accepted")
	}
}
