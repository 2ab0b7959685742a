package serve

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// LoadOptions configures one load-generation run against a serve.Server
// endpoint.
type LoadOptions struct {
	// Network is any network Dial accepts: tcp, tcp4, tcp6 or unix, or the
	// datagram networks udp, udp4, udp6 or unixgram, where a lost datagram
	// counts as a failed (timed-out) request.
	Network string
	Address string

	// Rate is the target aggregate request rate (req/s) in open-loop mode.
	// Default 1000. Ignored when ClosedLoop is set.
	Rate float64
	// ClosedLoop switches to saturation mode: every sender keeps exactly
	// one request in flight back-to-back for the whole Duration, so the
	// offered load is whatever the server can absorb at Conns×Outstanding
	// concurrency. This is the mode the knee sweep (RunKnee) steps through.
	ClosedLoop bool
	// Duration of the run. Default 1s.
	Duration time.Duration
	// Conns is how many connections to spread load over. Default 4.
	Conns int
	// Outstanding is the per-connection pipelining depth. Default 16.
	Outstanding int
	// Timeout is the per-request client timeout. Default 2s.
	Timeout time.Duration
	// StateDim is the request payload width. Default the serving config's
	// stacked state dimension.
	StateDim int
	// TagFlows stamps each sender's requests with a distinct flow ID
	// (InferFlow), so load spreads across all server shards regardless of
	// how senders map to connections.
	TagFlows bool
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Rate <= 0 {
		o.Rate = 1000
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.Outstanding <= 0 {
		o.Outstanding = 16
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.StateDim <= 0 {
		o.StateDim = core.DefaultConfig().StateDim()
	}
	return o
}

// LoadSummary is the result of a load run, JSON-shaped: `astraea loadgen`
// prints it as its report.
type LoadSummary struct {
	TargetRPS   float64 `json:"target_rps"` // 0 in closed-loop mode
	AchievedRPS float64 `json:"achieved_rps"`
	DurationSec float64 `json:"duration_sec"`
	Conns       int     `json:"conns"`
	Outstanding int     `json:"outstanding"`

	Requests  int64 `json:"requests"`
	Responses int64 `json:"responses"`
	// Failed counts hard errors (timeouts, transport failures) — a
	// fallback answer is a success with a flag, not a failure.
	Failed       int64   `json:"failed"`
	Fallbacks    int64   `json:"fallbacks"`
	Shed         int64   `json:"shed"`
	DeadlineMiss int64   `json:"deadline_miss"`
	FallbackRate float64 `json:"fallback_rate"`

	// Latencies are free of coordinated-omission bias: in open-loop mode
	// each sample is measured from the request's *intended* send time on
	// the fixed schedule, so a stalled server inflates the recorded
	// latency of the requests it delayed instead of silently thinning the
	// sample. MaxSchedLagMs reports how far the generator itself fell
	// behind its schedule (send-time minus intended-time, worst case) —
	// nonzero lag means the generator, not the server, was the bottleneck
	// and even the from-intended-time percentiles are a lower bound.
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	MaxSchedLagMs float64 `json:"max_sched_lag_ms"`

	// MinVersion/MaxVersion are the policy versions observed across
	// responses (they differ when a hot reload happened mid-run).
	MinVersion uint32 `json:"min_version"`
	MaxVersion uint32 `json:"max_version"`
}

// RunLoad drives the endpoint with Conns×Outstanding senders. Open-loop
// (the default): requests are scheduled on a fixed global cadence of Rate
// per second and latency is measured from each request's intended send
// time, which keeps the percentiles honest under coordinated omission — a
// sender that falls behind schedule fires immediately on catch-up and the
// lost ground is reported as MaxSchedLagMs. Closed-loop (ClosedLoop set):
// every sender keeps one request in flight continuously, measuring the
// server's saturation throughput at this concurrency. Hard request errors
// are counted, not fatal; dial failures are.
func RunLoad(opts LoadOptions) (LoadSummary, error) {
	opts = opts.withDefaults()

	clients := make([]*Client, opts.Conns)
	for i := range clients {
		c, err := Dial(opts.Network, opts.Address)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return LoadSummary{}, err
		}
		c.Timeout = opts.Timeout
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	senders := opts.Conns * opts.Outstanding
	interval := time.Duration(float64(time.Second) / opts.Rate)
	total := int64(opts.Rate * opts.Duration.Seconds())
	if total < 1 {
		total = 1
	}

	var requests, responses, failed, fallbacks, shed, deadlineMiss atomic.Int64
	var maxLagNs atomic.Int64
	var minVer, maxVer atomic.Uint32
	minVer.Store(math.MaxUint32)
	latencies := make([][]time.Duration, senders)

	start := time.Now()
	stop := start.Add(opts.Duration)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client := clients[k%opts.Conns]
			flow := uint64(k + 1)
			state := make([]float64, opts.StateDim)
			state[0] = 1 // a mildly realistic feature vector, not all-zero
			var lats []time.Duration
			if !opts.ClosedLoop {
				lats = make([]time.Duration, 0, int(total)/senders+1)
			}

			record := func(res Result, lat time.Duration) {
				lats = append(lats, lat)
				responses.Add(1)
				if res.Fallback() {
					fallbacks.Add(1)
				}
				if res.Shed() {
					shed.Add(1)
				}
				if res.DeadlineMissed() {
					deadlineMiss.Add(1)
				}
				for {
					v := minVer.Load()
					if res.Version >= v || minVer.CompareAndSwap(v, res.Version) {
						break
					}
				}
				for {
					v := maxVer.Load()
					if res.Version <= v || maxVer.CompareAndSwap(v, res.Version) {
						break
					}
				}
			}
			send := func(state []float64) (Result, error) {
				if opts.TagFlows {
					return client.InferFlow(flow, state)
				}
				return client.Infer(state)
			}

			if opts.ClosedLoop {
				for time.Now().Before(stop) {
					requests.Add(1)
					t0 := time.Now()
					res, err := send(state)
					if err != nil {
						failed.Add(1)
						time.Sleep(time.Millisecond) // don't spin on a dead endpoint
						continue
					}
					record(res, time.Since(t0))
				}
			} else {
				for i := int64(k); i < total; i += int64(senders) {
					due := start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					requests.Add(1)
					if lag := int64(time.Since(due)); lag > 0 {
						for {
							cur := maxLagNs.Load()
							if lag <= cur || maxLagNs.CompareAndSwap(cur, lag) {
								break
							}
						}
					}
					res, err := send(state)
					if err != nil {
						failed.Add(1)
						continue
					}
					// Intended-time latency: includes any generator lag, so
					// a delayed request cannot hide the delay it suffered.
					record(res, time.Since(due))
				}
			}
			latencies[k] = lats
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	sum := LoadSummary{
		DurationSec:   elapsed.Seconds(),
		Conns:         opts.Conns,
		Outstanding:   opts.Outstanding,
		Requests:      requests.Load(),
		Responses:     responses.Load(),
		Failed:        failed.Load(),
		Fallbacks:     fallbacks.Load(),
		Shed:          shed.Load(),
		DeadlineMiss:  deadlineMiss.Load(),
		MaxSchedLagMs: float64(maxLagNs.Load()) / float64(time.Millisecond),
	}
	if !opts.ClosedLoop {
		sum.TargetRPS = opts.Rate
	}
	if elapsed > 0 {
		sum.AchievedRPS = float64(sum.Responses) / elapsed.Seconds()
	}
	if sum.Responses > 0 {
		sum.FallbackRate = float64(sum.Fallbacks) / float64(sum.Responses)
		sum.MinVersion = minVer.Load()
		sum.MaxVersion = maxVer.Load()
	}
	if len(all) > 0 {
		sum.P50Ms = quantileMs(all, 0.50)
		sum.P90Ms = quantileMs(all, 0.90)
		sum.P99Ms = quantileMs(all, 0.99)
		sum.MaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	return sum, nil
}

// quantileMs reads quantile q from sorted latencies, in milliseconds.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// String renders the summary as a one-line human report.
func (s LoadSummary) String() string {
	mode := fmt.Sprintf("target %.0f", s.TargetRPS)
	if s.TargetRPS == 0 {
		mode = fmt.Sprintf("closed-loop %d×%d", s.Conns, s.Outstanding)
	}
	return fmt.Sprintf("%.0f req/s achieved (%s), %d ok / %d failed, fallback %.1f%% (shed %d, deadline %d), p50 %.2fms p90 %.2fms p99 %.2fms, lag %.2fms, versions %d..%d",
		s.AchievedRPS, mode, s.Responses, s.Failed,
		100*s.FallbackRate, s.Shed, s.DeadlineMiss, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxSchedLagMs, s.MinVersion, s.MaxVersion)
}

// KneeOptions configures a saturation sweep (RunKnee).
type KneeOptions struct {
	Network string
	Address string

	// Conns is the connection count for every step. Default 4.
	Conns int
	// StepDuration is how long each concurrency step runs. Default 2s.
	StepDuration time.Duration
	// MaxOutstanding caps the per-connection pipelining depth the sweep
	// will try. Default 128.
	MaxOutstanding int
	// Timeout, StateDim, TagFlows as in LoadOptions.
	Timeout  time.Duration
	StateDim int
	TagFlows bool
	// Log, when set, receives one progress line per step.
	Log func(string)
}

// KneeReport is the result of a saturation sweep: the throughput knee —
// the lowest concurrency that achieves (within kneeFraction of) the
// maximum observed throughput — plus every step for the full curve.
type KneeReport struct {
	Env BenchEnv `json:"env"`

	Conns           int     `json:"conns"`
	AchievedRPS     float64 `json:"achieved_rps"` // throughput at the knee
	P50Ms           float64 `json:"p50_ms"`       // latency at the knee
	P99Ms           float64 `json:"p99_ms"`
	KneeOutstanding int     `json:"knee_outstanding"`
	MaxRPS          float64 `json:"max_rps"` // best step anywhere on the curve

	Steps []LoadSummary `json:"steps"`
}

// kneeFraction: the knee is the cheapest step within this fraction of the
// best observed throughput — past it, doubling concurrency buys single-digit
// percent throughput at double the queueing delay.
const kneeFraction = 0.90

// RunKnee sweeps closed-loop load at doubling per-connection concurrency
// (1, 2, 4, ...) until throughput stops improving (two consecutive steps
// under a 5% gain) or MaxOutstanding is reached, then reports the knee:
// the lowest concurrency within kneeFraction of the best throughput, i.e.
// the point past which added load only buys queueing delay.
func RunKnee(opts KneeOptions) (KneeReport, error) {
	if opts.Conns <= 0 {
		opts.Conns = 4
	}
	if opts.StepDuration <= 0 {
		opts.StepDuration = 2 * time.Second
	}
	if opts.MaxOutstanding <= 0 {
		opts.MaxOutstanding = 128
	}

	rep := KneeReport{Env: CaptureEnv(), Conns: opts.Conns}
	best := 0.0
	dry := 0
	for out := 1; out <= opts.MaxOutstanding; out *= 2 {
		sum, err := RunLoad(LoadOptions{
			Network: opts.Network, Address: opts.Address,
			ClosedLoop: true, Duration: opts.StepDuration,
			Conns: opts.Conns, Outstanding: out,
			Timeout: opts.Timeout, StateDim: opts.StateDim,
			TagFlows: opts.TagFlows,
		})
		if err != nil {
			return rep, err
		}
		rep.Steps = append(rep.Steps, sum)
		if opts.Log != nil {
			opts.Log(fmt.Sprintf("outstanding %3d: %s", out, sum))
		}
		if sum.AchievedRPS > best*1.05 {
			dry = 0
		} else {
			dry++
		}
		if sum.AchievedRPS > best {
			best = sum.AchievedRPS
		}
		if dry >= 2 {
			break
		}
	}
	rep.MaxRPS = best
	for _, s := range rep.Steps {
		if s.AchievedRPS >= kneeFraction*best {
			rep.AchievedRPS = s.AchievedRPS
			rep.P50Ms = s.P50Ms
			rep.P99Ms = s.P99Ms
			rep.KneeOutstanding = s.Outstanding
			break
		}
	}
	return rep, nil
}

// BenchEnv is the environment provenance embedded in benchmark artifacts
// (a KneeReport, the `go run ./bench` result): enough to tell whether two
// recorded numbers are comparable at all.
type BenchEnv struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"` // filled by the caller (CLI flag / script)
	Shards     int    `json:"shards,omitempty"` // server shard count, when known
	Timestamp  string `json:"timestamp"`
}

// CaptureEnv snapshots the local environment. CPUModel comes from
// /proc/cpuinfo and is empty on platforms without it.
func CaptureEnv() BenchEnv {
	env := BenchEnv{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					env.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return env
}
