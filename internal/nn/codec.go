// Binary checkpoint codec for networks and optimizers. Unlike the JSON
// weight files (which exist for deployment and interchange, and carry only
// W/B), this codec captures everything training needs to continue exactly:
// Adam first/second moments per parameter, the gradient accumulators, and
// the optimizer step counter. Float64s round-trip bitwise.

package nn

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
)

// Encode appends the network's complete training state to e. A network
// that has not trained writes zeroed state of the same lengths, the bytes
// it would write had it allocated that state.
func (m *MLP) Encode(e *ckpt.Encoder) {
	e.Int(len(m.Layers))
	for _, l := range m.Layers {
		e.Int(l.In)
		e.Int(l.Out)
		e.Int(int(l.Act))
		e.Float64s(l.W)
		e.Float64s(l.B)
		mW, vW, mB, vB, gW, gB := l.mW, l.vW, l.mB, l.vB, l.gW, l.gB
		if gW == nil { // never trained: its state is all zeros
			zW, zB := make([]float64, len(l.W)), make([]float64, len(l.B))
			mW, vW, gW, mB, vB, gB = zW, zW, zW, zB, zB, zB
		}
		for _, v := range [][]float64{mW, vW, mB, vB, gW, gB} {
			e.Float64s(v)
		}
	}
}

// DecodeMLP reads a network written by Encode, validating layer shapes so a
// corrupt payload fails here rather than at the first Forward.
func DecodeMLP(d *ckpt.Decoder) (*MLP, error) {
	nLayers := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nLayers < 1 {
		return nil, fmt.Errorf("nn: decoded model has %d layers", nLayers)
	}
	m := &MLP{}
	prevOut := -1
	for li := 0; li < nLayers; li++ {
		l := &Dense{
			In:  d.Int(),
			Out: d.Int(),
			Act: Activation(d.Int()),
		}
		l.W = d.Float64s()
		l.B = d.Float64s()
		l.mW = d.Float64s()
		l.vW = d.Float64s()
		l.mB = d.Float64s()
		l.vB = d.Float64s()
		l.gW = d.Float64s()
		l.gB = d.Float64s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if l.In < 1 || l.Out < 1 {
			return nil, fmt.Errorf("nn: layer %d has shape %dx%d", li, l.In, l.Out)
		}
		// As in UnmarshalJSON: In·Out can overflow int, to a count an
		// empty weight slice "matches", and allocScratch would then size
		// its buffers by the bogus In and Out.
		if l.In > math.MaxInt/l.Out {
			return nil, fmt.Errorf("nn: layer %d shape %dx%d overflows", li, l.In, l.Out)
		}
		if l.Act != Linear && l.Act != ReLU && l.Act != Tanh {
			return nil, fmt.Errorf("nn: layer %d has unknown activation %d", li, int(l.Act))
		}
		if prevOut >= 0 && l.In != prevOut {
			return nil, fmt.Errorf("nn: layer %d input %d does not match previous output %d", li, l.In, prevOut)
		}
		prevOut = l.Out
		nW, nB := l.In*l.Out, l.Out
		for _, s := range [][]float64{l.W, l.mW, l.vW, l.gW} {
			if len(s) != nW {
				return nil, fmt.Errorf("nn: layer %d weight-shaped slice has %d values, want %d", li, len(s), nW)
			}
		}
		for _, s := range [][]float64{l.B, l.mB, l.vB, l.gB} {
			if len(s) != nB {
				return nil, fmt.Errorf("nn: layer %d bias-shaped slice has %d values, want %d", li, len(s), nB)
			}
		}
		m.Layers = append(m.Layers, l)
	}
	m.allocScratch()
	return m, nil
}

// Encode appends the optimizer's state — hyperparameters and the bias-
// correction step counter, whose loss would silently change every update
// after a resume.
func (a *Adam) Encode(e *ckpt.Encoder) {
	e.Float64(a.LR)
	e.Float64(a.Beta1)
	e.Float64(a.Beta2)
	e.Float64(a.Eps)
	e.Float64(a.MaxNorm)
	e.Int(a.t)
}

// DecodeAdam reads an optimizer written by Encode.
func DecodeAdam(d *ckpt.Decoder) (*Adam, error) {
	a := &Adam{
		LR:      d.Float64(),
		Beta1:   d.Float64(),
		Beta2:   d.Float64(),
		Eps:     d.Float64(),
		MaxNorm: d.Float64(),
		t:       d.Int(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if a.t < 0 {
		return nil, fmt.Errorf("nn: adam step counter %d is negative", a.t)
	}
	return a, nil
}
