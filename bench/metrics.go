package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
)

// metricDef is one row of BENCHMARK.json. The tables below are the source
// of truth inside the program; bench_test.go asserts they match the JSON.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd lists what a user of each pipeline sees. Every workload reports
// every metric; what "one operation" is differs per workload and is spelled
// out in README.md:
//
//	sim_*        throughput = simulated seconds per wall second; op = one runner.Run
//	serve_quant  throughput = responses/s in the closed-loop sat phase;
//	             op = one request in the open-loop lo phase
//	train_td3    throughput = episodes per wall second; op = one episode
//
// The bounds are set by the development box, not by taste: over ten seeds
// the quartile spread of single runs is 2-9 % of the median in a quiet hour
// and 14-18 % in a bad one (slow host drift, not sampling error: within a
// run the median is good to about 1 %). A bound has to sit well above that
// spread to be a gate rather than a coin.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced-run diagnostics, named <package>.<metric>. A
// layer that does no work in a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "sim.events_per_simsec", Unit: "1/sim-s", Better: "lower"},
	{Name: "sim.freelist_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns_deep", Unit: "ns", Better: "lower"},
	{Name: "sim.budget_share", Unit: "share", Better: "lower"},
	{Name: "netem.packets_per_simsec", Unit: "1/sim-s", Better: "lower"},
	{Name: "netem.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netem.max_queue_bytes", Unit: "bytes", Better: "lower"},
	{Name: "netem.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.hop_allocs", Unit: "count", Better: "lower"},
	{Name: "netem.budget_share", Unit: "share", Better: "lower"},
	{Name: "cc.callback_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "cc.callback_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "cc.calls_per_simsec", Unit: "1/sim-s", Better: "lower"},
	{Name: "cc.busy_share", Unit: "share", Better: "lower"},
	{Name: "core.agent_mtp_ns", Unit: "ns", Better: "lower"},
	{Name: "core.policy_action_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.sent_per_simsec", Unit: "1/sim-s", Better: "lower"},
	{Name: "transport.loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "transport.timeouts_per_simsec", Unit: "1/sim-s", Better: "lower"},
	{Name: "transport.residual_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "runner.allocs_per_simsec", Unit: "1/sim-s", Better: "lower"},
	{Name: "runner.alloc_bytes_per_simsec", Unit: "bytes/sim-s", Better: "lower"},
	{Name: "runner.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "runner.batch_speedup", Unit: "ratio", Better: "higher"},
	{Name: "serve.lat_hi_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lat_hi_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lat_hi_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.deadline_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.gen_max_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.client_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.front_cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "core.batch_size_sat", Unit: "count", Better: "higher"},
	{Name: "core.batch_size_lo", Unit: "count", Better: "higher"},
	{Name: "core.batch_size_hi", Unit: "count", Better: "higher"},
	{Name: "core.full_batch_ratio_sat", Unit: "ratio", Better: "higher"},
	{Name: "core.queue_wait_ms_sat", Unit: "ms", Better: "lower"},
	{Name: "core.queue_wait_ms_lo", Unit: "ms", Better: "lower"},
	{Name: "core.service_inproc_rps", Unit: "1/s", Better: "higher"},
	{Name: "nn.quant_action_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.eval_busy_share", Unit: "share", Better: "lower"},
	{Name: "nn.float_action_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.forward_us", Unit: "us", Better: "lower"},
	{Name: "nn.backward_us", Unit: "us", Better: "lower"},
	{Name: "rl.updates_per_episode", Unit: "count", Better: "lower"},
	{Name: "rl.update_ms", Unit: "ms", Better: "lower"},
	{Name: "rl.update_share", Unit: "share", Better: "lower"},
	{Name: "rl.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "env.episode_wall_s", Unit: "s", Better: "lower"},
	{Name: "env.rollout_s", Unit: "s", Better: "lower"},
	{Name: "env.transitions_per_episode", Unit: "count", Better: "higher"},
	{Name: "env.rollout_share", Unit: "share", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// sample is a reported timing: the median over N values with its quartiles.
type sample struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile reads q from sorted values with linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summarize returns the median and quartiles of vals (vals is not modified).
func summarize(vals []float64) sample {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return sample{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// upperQuartile is summarize with the upper quartile as the value: the tail
// statistic for workloads with a few samples a run.
func upperQuartile(vals []float64) sample {
	s := summarize(vals)
	s.Value = s.Q3
	return s
}

// sliceTail cuts vals, in the order measured, into k consecutive slices and
// summarizes the slices' upper quartiles: the value is their median. A host
// stall lasting part of a run lands in some slices and leaves the others
// alone, so it moves this far less than the upper quartile of the whole run.
func sliceTail(vals []float64, k int) sample {
	var per []float64
	for i := 0; i < k; i++ {
		if s := vals[i*len(vals)/k : (i+1)*len(vals)/k]; len(s) > 0 {
			per = append(per, summarize(s).Q3)
		}
	}
	return summarize(per)
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// digest is an FNV-64a hash over the little-endian bytes of the numbers fed
// to it; it remembers whether any float was NaN.
type digest struct {
	h      hash.Hash64
	hasNaN bool
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	d.h.Write(buf[:])
}

func (d *digest) float(v float64) {
	if math.IsNaN(v) {
		d.hasNaN = true
	}
	d.int(int64(math.Float64bits(v)))
}

// digestFloats hashes a float slice.
func digestFloats(vals []float64) uint64 {
	d := newDigest()
	for _, v := range vals {
		d.float(v)
	}
	return d.h.Sum64()
}

// nsHist is a fixed-size log histogram of nanosecond durations: eight
// sub-buckets per power of two (≤ 6 % midpoint error), so per-packet
// callbacks can be aggregated without storing samples or allocating.
type nsHist struct {
	n   int64
	sum int64
	b   [40 * 8]int64
}

func (h *nsHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	h.n++
	h.sum += ns
	e := bits.Len64(uint64(ns)) - 1
	if e >= 40 {
		e, ns = 39, 1<<40-1
	}
	var sub int64
	if e >= 3 {
		sub = (ns >> uint(e-3)) & 7
	} else {
		sub = (ns << uint(3-e)) & 7
	}
	h.b[e*8+int(sub)]++
}

func (h *nsHist) merge(o *nsHist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the midpoint of the bucket holding quantile q, in ns.
func (h *nsHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.b {
		seen += c
		if seen >= target {
			base := math.Ldexp(1, i/8)
			return base * (1 + (float64(i%8)+0.5)/8)
		}
	}
	return 0
}

func (h *nsHist) seconds() float64 { return float64(h.sum) / 1e9 }
