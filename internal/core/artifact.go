// Sealed policy artifacts: the deployable unit of the closed-loop pilot
// (internal/pilot). A sealed artifact is a ckpt CRC container whose payload
// carries a PolicyMeta record — generation number, lineage, training
// provenance — followed by the float actor weights. It is what the pilot
// promotes to the serving fleet: LoadPolicy sniffs the format, the serving
// layer compiles the embedded weights to the quantized serving form on load
// (quantize-on-promote), and the metadata rides through to the
// serve_policy_generation telemetry, so every response-path version bump is
// attributable to a training generation.
//
// Plain JSON weights (SavePolicy) remain a first-class serving artifact, and
// the sealed artifact is the one binary policy format; sealing adds
// integrity (a torn or bit-flipped promotion is rejected by CRC before any
// field is parsed) and identity, both of which the promotion/rollback state
// machine depends on.

package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/nn"
)

// sealedPolicyTag is the payload discriminator of a sealed policy artifact
// inside the ckpt container, distinguishing it from every other payload
// that container carries (a training checkpoint, or the compiled "AQP1"
// blob older builds wrote). Spells "POL1".
const sealedPolicyTag = int64(0x314C4F50)

// PolicyMeta identifies one promoted policy generation: where the weights
// came from and where they sit in the promotion lineage. It is embedded in
// sealed artifacts and recorded in the pilot's generation manifest.
type PolicyMeta struct {
	// Generation is the monotonically increasing promotion counter; 0 is
	// reserved for the pre-pilot incumbent (reference policy or hand-placed
	// weights).
	Generation uint64 `json:"generation"`
	// Parent is the generation that was serving when this one was sealed —
	// the rollback target.
	Parent uint64 `json:"parent"`
	// CreatedUnix is the seal time in Unix seconds.
	CreatedUnix int64 `json:"created_unix"`
	// Reward names the reward strategy the actor was trained under.
	Reward string `json:"reward,omitempty"`
	// Episodes is the trainer's episode counter at export time.
	Episodes int `json:"episodes,omitempty"`
	// Note carries free-form provenance (gate scores, trainer identity).
	Note string `json:"note,omitempty"`
}

// SaveSealedPolicy writes net and its metadata to path as a sealed artifact:
// ckpt container (magic, version, CRC-32C), payload = tag + meta JSON +
// weight JSON. The write is atomic, so a watcher (serve.Reloader) can never
// observe a torn artifact mid-promotion.
func SaveSealedPolicy(path string, net *nn.MLP, meta PolicyMeta) error {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("core: marshal policy meta: %w", err)
	}
	weights, err := json.Marshal(net)
	if err != nil {
		return fmt.Errorf("core: marshal policy: %w", err)
	}
	e := &ckpt.Encoder{}
	e.Int64(sealedPolicyTag)
	e.Bytes(metaJSON)
	e.Bytes(weights)
	_, err = ckpt.WriteFile(path, e.Payload())
	return err
}

// decodeSealedPolicy parses a sealed-artifact payload (its tag already
// sniffed by LoadPolicy) into the float policy and its metadata, validated
// against cfg like every other format.
func decodeSealedPolicy(payload []byte, path string, cfg Config) (*MLPPolicy, *PolicyMeta, error) {
	d := ckpt.NewDecoder(payload)
	d.Int64() // sealedPolicyTag
	metaJSON := d.Bytes()
	weights := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: sealed policy %s: %w", path, err)
	}
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("core: sealed policy %s: %w", path, err)
	}
	var meta PolicyMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, nil, fmt.Errorf("core: sealed policy %s meta: %w", path, err)
	}
	mp, err := parsePolicyWeights(weights, path, cfg)
	if err != nil {
		return nil, nil, err
	}
	return mp, &meta, nil
}
