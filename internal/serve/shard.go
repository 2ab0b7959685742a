package serve

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ShardedService owns N per-shard core.Service instances, each with its own
// evaluator goroutine and private pending queue. Admission hashes a flow key
// to a shard, so all requests for one flow are evaluated in order on one
// evaluator while independent flows spread across cores. One instance per
// shard also removes the policy-scratch serialization bottleneck: policies
// are cloned per shard (core.ClonePolicy), so N forward passes proceed
// concurrently.
//
// The shard count is fixed at construction. Policy swaps go through
// SetPolicy, which re-clones into every shard and bumps the single globally
// monotonic version counter that makes the swap observable as one atomic
// event — ShardedService owns that counter, so it satisfies PolicyHost on
// its own and Server merely delegates.
type ShardedService struct {
	shards  []*core.Service
	version atomic.Uint32
}

// NewShardedService builds n shards around template: template itself is
// shard 0 and shards 1..n-1 are new services with the template's batching
// parameters and an independent clone of its policy. n < 1 is treated as 1.
func NewShardedService(template *core.Service, n int) *ShardedService {
	if n < 1 {
		n = 1
	}
	ss := &ShardedService{shards: make([]*core.Service, n)}
	ss.version.Store(1)
	ss.shards[0] = template
	for i := 1; i < n; i++ {
		ss.shards[i] = template.Sibling(core.ClonePolicy(template.Policy()))
	}
	return ss
}

// NumShards returns the shard count.
func (ss *ShardedService) NumShards() int { return len(ss.shards) }

// Shard returns shard i.
func (ss *ShardedService) Shard(i int) *core.Service { return ss.shards[i] }

// ShardIndex maps a flow key to its shard. The key is finalized through a
// splitmix64 mix so adjacent flow IDs (the common case: small integers)
// still spread uniformly.
func (ss *ShardedService) ShardIndex(flowKey uint64) int {
	if len(ss.shards) == 1 {
		return 0
	}
	return int(mix64(flowKey) % uint64(len(ss.shards)))
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SetPolicy swaps the policy on every shard, cloning per shard so no two
// evaluators share scratch state, then bumps and returns the global version
// counter. A batch an evaluator has already pulled keeps the policy it was
// pulled with (the core.Service guarantee), so no in-flight request is
// dropped or split by the swap.
func (ss *ShardedService) SetPolicy(p core.Policy) uint32 {
	ss.shards[0].SetPolicy(p)
	for _, svc := range ss.shards[1:] {
		svc.SetPolicy(core.ClonePolicy(p))
	}
	return ss.version.Add(1)
}

// PolicyVersion returns the current policy version counter. The counter
// starts at 1 and increments on every SetPolicy.
func (ss *ShardedService) PolicyVersion() uint32 { return ss.version.Load() }

// Instrument registers the batching telemetry once (on shard 0) and shares
// the instruments with every other shard, so the metrics aggregate across
// the fleet instead of colliding in the registry.
func (ss *ShardedService) Instrument(reg *telemetry.Registry) {
	ss.shards[0].Instrument(reg)
	for _, svc := range ss.shards[1:] {
		svc.ShareInstruments(ss.shards[0])
	}
}

// Stats sums request and batch counts across shards.
func (ss *ShardedService) Stats() (requests, batches int64) {
	for _, svc := range ss.shards {
		r, b := svc.Stats()
		requests += r
		batches += b
	}
	return requests, batches
}

// Close drains and closes every shard. Each shard's Close waits for its
// evaluator to drain, so on return every submitted request has completed.
func (ss *ShardedService) Close() {
	for _, svc := range ss.shards {
		svc.Close()
	}
}
