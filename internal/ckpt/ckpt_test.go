package ckpt

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB}, 1000)} {
		sealed := Seal(payload)
		got, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open(%d-byte payload): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mutated in round trip")
		}
	}
}

// The headline durability property: a checkpoint truncated at ANY byte
// offset must be rejected — there is no prefix of a valid container that is
// itself valid.
func TestOpenRejectsTruncationAtEveryOffset(t *testing.T) {
	payload := make([]byte, 300)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(payload)
	sealed := Seal(payload)
	for n := 0; n < len(sealed); n++ {
		if _, err := Open(sealed[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes was accepted", n, len(sealed))
		}
	}
}

// Any single bit flip anywhere — header, payload, or trailer — must fail
// validation.
func TestOpenRejectsCorruptionAtEveryByte(t *testing.T) {
	payload := make([]byte, 300)
	rnd := rand.New(rand.NewSource(2))
	rnd.Read(payload)
	sealed := Seal(payload)
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 1 << uint(rnd.Intn(8))
		if _, err := Open(mut); err == nil {
			t.Fatalf("bit flip at byte %d was accepted", i)
		}
	}
	// Appending trailing garbage must also fail (length prefix mismatch).
	if _, err := Open(append(append([]byte(nil), sealed...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestOpenRejectsWrongMagicAndVersion(t *testing.T) {
	sealed := Seal([]byte("hello"))
	bad := append([]byte(nil), sealed...)
	bad[0] ^= 0xFF
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic: %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	payload := []byte("the complete learner state")
	n, err := WriteFile(path, payload)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(n) {
		t.Fatalf("reported %d bytes, stat says %v (%v)", n, fi, err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mutated through the file")
	}
	// Overwrite must leave exactly one file: the new checkpoint, no temp
	// litter.
	if _, err := WriteFile(path, []byte("newer state")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.ckpt" {
		t.Fatalf("unexpected directory contents after overwrite: %v", entries)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "newer state" {
		t.Fatalf("read %q after overwrite", got)
	}
}

func TestWriteAtomicFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.json")
	if err := WriteAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Writing into a nonexistent directory must fail without touching the
	// original.
	if err := WriteAtomic(filepath.Join(dir, "missing", "policy.json"), []byte("new"), 0o644); err == nil {
		t.Fatal("expected error for missing directory")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("original clobbered: %q, %v", got, err)
	}
}

// Property test over the primitive codec: a random sequence of typed values
// encodes and decodes to deep-equal results with the payload fully
// consumed.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		type op struct {
			kind int
			val  any
		}
		var ops []op
		e := &Encoder{}
		for i := 0; i < 1+rnd.Intn(30); i++ {
			switch k := rnd.Intn(7); k {
			case 0:
				v := rnd.Uint64()
				e.Uint64(v)
				ops = append(ops, op{k, v})
			case 1:
				v := rnd.Int63() - rnd.Int63()
				e.Int64(v)
				ops = append(ops, op{k, v})
			case 2:
				v := rnd.Intn(2) == 1
				e.Bool(v)
				ops = append(ops, op{k, v})
			case 3:
				v := math.Float64frombits(rnd.Uint64()) // any bit pattern, incl. NaN payloads
				e.Float64(v)
				ops = append(ops, op{k, v})
			case 4:
				v := make([]float64, rnd.Intn(20))
				for j := range v {
					v[j] = rnd.NormFloat64()
				}
				e.Float64s(v)
				ops = append(ops, op{k, v})
			case 5:
				v := make([]byte, rnd.Intn(40))
				rnd.Read(v)
				e.Bytes(v)
				ops = append(ops, op{k, v})
			case 6:
				v := make([]int, rnd.Intn(15))
				for j := range v {
					v[j] = rnd.Intn(1000) - 500
				}
				e.Ints(v)
				ops = append(ops, op{k, v})
			}
		}
		d := NewDecoder(e.Payload())
		for i, o := range ops {
			var got any
			switch o.kind {
			case 0:
				got = d.Uint64()
			case 1:
				got = d.Int64()
			case 2:
				got = d.Bool()
			case 3:
				// Compare bits: NaN != NaN under ==.
				if g, w := math.Float64bits(d.Float64()), math.Float64bits(o.val.(float64)); g != w {
					t.Fatalf("trial %d op %d: float bits %x != %x", trial, i, g, w)
				}
				continue
			case 4:
				got = d.Float64s()
				if len(got.([]float64)) == 0 && len(o.val.([]float64)) == 0 {
					continue
				}
			case 5:
				got = d.Bytes()
				if len(got.([]byte)) == 0 && len(o.val.([]byte)) == 0 {
					continue
				}
			case 6:
				got = d.Ints()
				if len(got.([]int)) == 0 && len(o.val.([]int)) == 0 {
					continue
				}
			}
			if !reflect.DeepEqual(got, o.val) {
				t.Fatalf("trial %d op %d (kind %d): %v != %v", trial, i, o.kind, got, o.val)
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDecoderErrorsAreSticky(t *testing.T) {
	e := &Encoder{}
	e.Uint64(1)
	d := NewDecoder(e.Payload())
	d.Uint64()
	d.Uint64() // past the end
	if d.Err() == nil {
		t.Fatal("read past end did not error")
	}
	if v := d.Uint64(); v != 0 {
		t.Fatalf("post-error read returned %d, want zero value", v)
	}
	if err := d.Finish(); err == nil {
		t.Fatal("Finish cleared the sticky error")
	}
}

func TestDecoderRejectsImplausibleLength(t *testing.T) {
	e := &Encoder{}
	e.Int(1 << 40) // length prefix promising a terabyte
	d := NewDecoder(e.Payload())
	if v := d.Float64s(); v != nil || d.Err() == nil {
		t.Fatalf("implausible length accepted: %v, %v", v, d.Err())
	}
}

func TestFinishFlagsTrailingBytes(t *testing.T) {
	e := &Encoder{}
	e.Uint64(7)
	e.Uint64(8)
	d := NewDecoder(e.Payload())
	d.Uint64()
	if err := d.Finish(); err == nil {
		t.Fatal("trailing bytes not flagged")
	}
}
