// Binary codec for compiled quantized policies. The payload is the
// deployable artifact format emitted by `astraea quantize` (inside a
// ckpt CRC container) and loaded by core.LoadPolicy; it carries
// exactly what the integer forward pass needs — layer shapes, flat int16
// weights, int32 biases, requantization constants, and the per-feature
// input scales — never float training state.
//
// DecodeQuantized treats the payload as hostile: beyond shape and range
// checks it re-verifies the accumulator no-wrap inequality for every output
// row, so even a handcrafted blob cannot make Forward wrap an int32.

package nn

import (
	"fmt"

	"repro/internal/ckpt"
)

// quantFormatTag versions the quantized payload layout inside the ckpt
// container (which has its own magic/CRC); bump when the layout changes.
const quantFormatTag = int64(0x41515031) // "AQP1"

// maxQuantLayers bounds decoded layer counts; real policies have ≤ 5.
const maxQuantLayers = 64

// maxQuantDim bounds a single layer dimension.
const maxQuantDim = 1 << 15

// EncodeQuantized appends the compiled network to e.
func (q *QuantizedMLP) EncodeQuantized(e *ckpt.Encoder) {
	e.Int64(quantFormatTag)
	e.Int(len(q.layers))
	for _, l := range q.layers {
		e.Int(l.in)
		e.Int(l.out)
		e.Int(int(l.act))
		e.Int64(l.mult)
		e.Int(int(l.shift))
		e.Int(int(l.outBits))
	}
	e.Float64s(q.inScale)
	e.Int16s(q.weights)
	e.Int32s(q.biases)
}

// DecodeQuantized reads a compiled network written by EncodeQuantized,
// rejecting anything that could panic or wrap in Forward: bad shapes, an
// unknown activation, out-of-range requantization constants, non-finite
// input scales, and weight rows whose L1 mass breaks the int32 accumulator
// bound.
func DecodeQuantized(d *ckpt.Decoder) (*QuantizedMLP, error) {
	if tag := d.Int64(); d.Err() == nil && tag != quantFormatTag {
		return nil, fmt.Errorf("nn: not a quantized policy payload (tag %#x)", tag)
	}
	nLayers := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nLayers < 1 || nLayers > maxQuantLayers {
		return nil, fmt.Errorf("nn: quantized model has %d layers (want 1..%d)", nLayers, maxQuantLayers)
	}
	q := &QuantizedMLP{}
	prevOut := -1
	wOff, bOff := 0, 0
	for li := 0; li < nLayers; li++ {
		in := d.Int()
		out := d.Int()
		act := Activation(d.Int())
		mult := d.Int64()
		shift := d.Int()
		outBits := d.Int()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if in < 1 || in > maxQuantDim || out < 1 || out > maxQuantDim {
			return nil, fmt.Errorf("nn: quantized layer %d has shape %dx%d", li, in, out)
		}
		if act != Linear && act != ReLU && act != Tanh {
			return nil, fmt.Errorf("nn: quantized layer %d has unknown activation %d", li, int(act))
		}
		if prevOut >= 0 && in != prevOut {
			return nil, fmt.Errorf("nn: quantized layer %d input %d does not match previous output %d", li, in, prevOut)
		}
		if mult < 0 || mult > 1<<30 {
			return nil, fmt.Errorf("nn: quantized layer %d multiplier %d out of range", li, mult)
		}
		if shift < 1 || shift > 62 {
			return nil, fmt.Errorf("nn: quantized layer %d shift %d out of range", li, shift)
		}
		if outBits < -16 || outBits > 15 {
			return nil, fmt.Errorf("nn: quantized layer %d output format Q%d out of range", li, outBits)
		}
		if act == Tanh && outBits != tanhOutBits {
			return nil, fmt.Errorf("nn: quantized tanh layer %d declares Q%d output, want Q%d", li, outBits, tanhOutBits)
		}
		prevOut = out
		q.layers = append(q.layers, quantLayer{
			in: in, out: out, act: act,
			wOff: wOff, bOff: bOff,
			mult: mult, rnd: int64(1) << (shift - 1), shift: uint8(shift),
			outBits: int8(outBits),
		})
		wOff += in * out
		bOff += out
	}
	q.inScale = d.Float64s()
	q.weights = d.Int16s()
	q.biases = d.Int32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(q.inScale) != q.layers[0].in {
		return nil, fmt.Errorf("nn: quantized model has %d input scales, want %d", len(q.inScale), q.layers[0].in)
	}
	for i, s := range q.inScale {
		if !(s > 0) || s > 1e30 {
			return nil, fmt.Errorf("nn: quantized input scale %d is %v", i, s)
		}
	}
	if len(q.weights) != wOff {
		return nil, fmt.Errorf("nn: quantized model has %d weights, want %d", len(q.weights), wOff)
	}
	if len(q.biases) != bOff {
		return nil, fmt.Errorf("nn: quantized model has %d biases, want %d", len(q.biases), bOff)
	}
	if err := q.checkAccBounds(); err != nil {
		return nil, err
	}
	q.finish()
	return q, nil
}

// QuantizedBlob seals the compiled network as a standalone versioned binary
// blob (ckpt container: magic, version, CRC-32C) — the deployable artifact
// format.
func (q *QuantizedMLP) QuantizedBlob() []byte {
	var e ckpt.Encoder
	q.EncodeQuantized(&e)
	return ckpt.Seal(e.Payload())
}

// OpenQuantizedBlob validates a blob written by QuantizedBlob and decodes
// the compiled network within.
func OpenQuantizedBlob(blob []byte) (*QuantizedMLP, error) {
	payload, err := ckpt.Open(blob)
	if err != nil {
		return nil, err
	}
	d := ckpt.NewDecoder(payload)
	q, err := DecodeQuantized(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return q, nil
}
