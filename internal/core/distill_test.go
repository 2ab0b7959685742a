package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestDistillPolicyGoldenDigest pins the distilled weights and the returned
// loss, bit for bit, to constants captured from the minibatch loop run one
// sample at a time through Forward/Backward on the portable tier, under the
// products' fused multiply-add contract. 500 samples at batch 64 leaves a
// ragged last minibatch of 52, and the hidden widths exercise the batched
// kernels' remainder paths.
func TestDistillPolicyGoldenDigest(t *testing.T) {
	opts := DefaultDistillOptions()
	opts.Samples, opts.Epochs = 500, 3
	cfg := DefaultConfig()
	cfg.Hidden = []int{33, 18, 7}
	net, loss := DistillPolicy(cfg, opts)

	h := fnv.New64a()
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	for _, l := range net.Layers {
		for _, w := range l.W {
			put(w)
		}
		for _, w := range l.B {
			put(w)
		}
	}
	put(loss)
	const want = 0xcfcc98edae996379
	if got := h.Sum64(); got != want {
		t.Fatalf("distilled policy digest %#016x, want %#016x", got, uint64(want))
	}
}
