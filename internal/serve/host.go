package serve

import "repro/internal/core"

// PolicyHost is the one seam through which a policy is swapped into a
// serving fleet and its version observed. Both *Server (the network-facing
// daemon) and *ShardedService (the bare shard set, useful in tests and
// embedded deployments) implement it, so callers that drive promotion —
// the Reloader, the closed-loop pilot, tests — target this interface
// instead of either concrete type.
//
// Contract: SetPolicy installs p on every shard without dropping, erroring,
// or splitting an in-flight request (a batch an evaluator has already pulled
// keeps the policy it was pulled with) and returns the new value of a single
// globally monotonic version counter; PolicyVersion reads that counter.
// Implementations must make the swap observable as one atomic event: a
// response stream never sees the version counter move backwards.
type PolicyHost interface {
	// SetPolicy swaps the served policy on every shard and returns the new
	// policy version.
	SetPolicy(p core.Policy) uint32
	// PolicyVersion returns the current policy version counter.
	PolicyVersion() uint32
}

// Compile-time checks: the two concrete hosts implement the seam.
var (
	_ PolicyHost = (*Server)(nil)
	_ PolicyHost = (*ShardedService)(nil)
)
