// Package ckpt implements the crash-safe checkpoint container used by the
// training pipeline: a versioned binary file with a CRC-32C integrity
// checksum, written atomically (temp file in the destination directory +
// fsync + rename) so that a crash — including kill -9 — at any instant
// leaves either the previous complete checkpoint or the new one at the
// configured path, never a partial file.
//
// The container is deliberately dumb: a magic string, a format version, a
// length-prefixed payload, and a trailing checksum over everything before
// it. What the payload means is the caller's business; Encoder/Decoder
// provide the little-endian primitives the nn/rl/env codecs are built from.
// Truncating or corrupting a checkpoint at any byte offset is detected and
// rejected by ReadFile — a loader never sees garbage.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint container.
const Magic = "ASTRCKPT"

// Version is the current container format version. Decoders reject other
// versions rather than guessing at payload layout.
const Version = 1

// headerLen is magic + version(uint32) + payload length(uint64).
const headerLen = len(Magic) + 4 + 8

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in the container format: header, payload, CRC trailer.
func Seal(payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+4)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// Open validates a sealed container and returns its payload. Any
// truncation, extension, or bit flip anywhere in data yields an error.
func Open(data []byte) ([]byte, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("ckpt: file too short (%d bytes) to be a checkpoint", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", data[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported format version %d (want %d)", v, Version)
	}
	plen := binary.LittleEndian.Uint64(data[len(Magic)+4:])
	if plen != uint64(len(data)-headerLen-4) {
		return nil, fmt.Errorf("ckpt: payload length %d does not match file size %d", plen, len(data))
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (file %08x, computed %08x): checkpoint is corrupt", want, got)
	}
	return data[headerLen : headerLen+int(plen)], nil
}

// WriteFile seals payload and writes it atomically to path, returning the
// number of bytes the finished file occupies.
func WriteFile(path string, payload []byte) (int, error) {
	sealed := Seal(payload)
	if err := WriteAtomic(path, sealed, 0o644); err != nil {
		return 0, err
	}
	return len(sealed), nil
}

// ReadFile reads and validates a checkpoint written by WriteFile.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return payload, nil
}

// WriteAtomic writes data to path through a temp file in the same
// directory, fsyncing the file before the rename and the directory after,
// so a crash at any point leaves either the old file or the complete new
// one. It is also the writer behind core.SavePolicy, closing the
// truncated-weights-on-crash window.
func WriteAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("ckpt: write %s: %w", tmp, err))
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(fmt.Errorf("ckpt: chmod %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("ckpt: fsync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: rename %s -> %s: %w", tmp, path, err)
	}
	// Persist the rename itself. Some filesystems reject directory fsync;
	// the rename is still atomic, so degrade silently there.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Encoder appends little-endian primitives to a growing payload. Slices and
// byte strings are length-prefixed, so a Decoder reading the same sequence
// of calls reconstructs the values exactly; float64s are stored as IEEE-754
// bits, making round trips bitwise.
type Encoder struct {
	buf []byte
}

// Payload returns the encoded bytes.
func (e *Encoder) Payload() []byte { return e.buf }

// Uint64 appends v.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int64 appends v.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Int appends v as an int64.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool appends v as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends v's IEEE-754 bits.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Float64s appends a length-prefixed float64 slice.
func (e *Encoder) Float64s(v []float64) {
	e.Int(len(v))
	for _, x := range v {
		e.Float64(x)
	}
}

// Ints appends a length-prefixed int slice.
func (e *Encoder) Ints(v []int) {
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(v []byte) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// maxLen caps decoded length prefixes: no single slice in a checkpoint
// legitimately exceeds this, and the cap keeps a corrupt-but-CRC-colliding
// length from driving a multi-gigabyte allocation.
const maxLen = 1 << 31

// Decoder reads back the primitive sequence an Encoder produced. Errors are
// sticky: after the first failure every subsequent read returns zero values
// and Err reports the failure, so codecs can decode straight-line and check
// once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads from payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode failure, if any.
func (d *Decoder) Err() error { return d.err }

// Finish fails unless the payload was consumed exactly and without error.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("ckpt: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail(fmt.Errorf("ckpt: payload truncated at offset %d (need %d bytes)", d.off, n))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads one uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads one int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads one int, rejecting values outside the platform int range.
func (d *Decoder) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("ckpt: int value %d out of range", v))
		return 0
	}
	return int(v)
}

// Bool reads one byte as a bool.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("ckpt: invalid bool byte %d", b[0]))
		return false
	}
}

// Float64 reads one float64 from its IEEE-754 bits.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// length reads and bounds-checks a slice length prefix. Beyond the absolute
// cap, the prefix cannot promise more elements than bytes remaining.
func (d *Decoder) length(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || int64(n) > maxLen || (elemSize > 0 && n > (len(d.buf)-d.off)/elemSize) {
		d.fail(fmt.Errorf("ckpt: implausible length %d at offset %d", n, d.off))
		return 0
	}
	return n
}

// Float64s reads a length-prefixed float64 slice (nil for length 0).
func (d *Decoder) Float64s() []float64 {
	n := d.length(8)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.Float64()
	}
	if d.err != nil {
		return nil
	}
	return v
}

// Ints reads a length-prefixed int slice (nil for length 0).
func (d *Decoder) Ints() []int {
	n := d.length(8)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return v
}

// Bytes reads a length-prefixed byte slice (nil for length 0).
func (d *Decoder) Bytes() []byte {
	n := d.length(1)
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
