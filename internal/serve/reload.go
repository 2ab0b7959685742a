package serve

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Reloader serves the policy artifact at one path: it loads the daemon's
// boot policy (Load) and hot-swaps later snapshots of the same file into a
// PolicyHost (Reload). The artifact is read by core.LoadPolicy, which sniffs
// its format — JSON weights written by core.SavePolicy, or a sealed
// generation artifact written by core.SaveSealedPolicy (the pilot's
// promotion format) — and validates it against the serving config. Either
// way it holds float weights, which are compiled to the fixed-point serving
// form here (core.QuantizeMLPPolicy) and nowhere else, so the boot policy
// and every reload take the same path and the serve_policy_generation gauge
// reports a sealed artifact's generation from the first scrape.
//
// A rejected reload (a half-trained, truncated, or wrong-dimension
// candidate) leaves the previous policy serving and is counted on
// policy_reload_failures_total; a good one bumps the host's version counter.
// Because both writers are atomic (temp + fsync + rename via
// internal/ckpt), a watcher can never observe a torn file: every snapshot it
// picks up is one the trainer finished writing. Direct writes by anything
// else can still tear, which is exactly what the failure counter makes
// loudly observable.
//
// Two triggers share the same Reload path: an explicit call (the serve
// daemon wires SIGHUP to it) and the mtime/size poller started by Watch.
// The host is any PolicyHost — the network Server in the daemon, a bare
// ShardedService in tests and embedded pilots.
type Reloader struct {
	path string
	cfg  core.Config

	// Interval is the Watch polling period (default 500ms).
	Interval time.Duration

	// Quantize selects the serving form: when true (the default from
	// NewReloader), Load and Reload compile the float actor to its
	// fixed-point form, so hot reloads serve the same representation the
	// daemon booted with. The serve daemon's -float flag clears it to keep
	// the float oracle path.
	Quantize bool

	mReloads  *telemetry.Counter
	mErrors   *telemetry.Counter
	mFailures *telemetry.Counter
	gGen      *telemetry.Gauge

	mu       sync.Mutex
	lastMod  time.Time
	lastSize int64
	watching bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReloader builds a reloader for the policy artifact at path, validated
// against cfg. It quantizes by default; clear Quantize
// before the first Load/Reload/Watch to serve float weights as loaded.
func NewReloader(path string, cfg core.Config) *Reloader {
	r := &Reloader{path: path, cfg: cfg, Interval: 500 * time.Millisecond,
		Quantize: true,
		stop:     make(chan struct{}), done: make(chan struct{})}
	if st, err := os.Stat(path); err == nil {
		// Baseline: the host serves this snapshot already (booted from it
		// by Load); only a later write should trigger a reload.
		r.lastMod, r.lastSize = st.ModTime(), st.Size()
	}
	return r
}

// Instrument registers reload telemetry on reg. Call it before Load, so the
// boot artifact's generation reaches the gauge.
func (r *Reloader) Instrument(reg *telemetry.Registry) {
	r.mReloads = reg.Counter("serve_reloads_total", "successful policy hot reloads")
	r.mErrors = reg.Counter("serve_reload_errors_total", "rejected policy reloads (unreadable or invalid weights)")
	r.mFailures = reg.Counter("policy_reload_failures_total",
		"policy reload attempts that left the previous version serving (corrupt, truncated, or invalid candidate)")
	r.gGen = reg.Gauge("serve_policy_generation",
		"pilot generation of the served policy (sealed artifacts only; 0 before the first promotion)")
}

// load reads the artifact in its serving form: compiled to fixed point
// when Quantize is set, the float actor otherwise.
func (r *Reloader) load() (core.Policy, *core.PolicyMeta, error) {
	mp, meta, err := core.LoadPolicy(r.path, r.cfg)
	if err != nil {
		return nil, nil, err
	}
	if !r.Quantize {
		return mp, meta, nil
	}
	qp, err := core.QuantizeMLPPolicy(mp, r.cfg)
	if err != nil {
		return nil, nil, err
	}
	return qp, meta, nil
}

// Load reads the artifact in its serving form without installing it: the
// daemon builds its server around the returned policy, which then serves
// as version 1.
func (r *Reloader) Load() (core.Policy, error) {
	p, meta, err := r.load()
	if err != nil {
		return nil, err
	}
	if meta != nil { // artifacts without metadata leave the gauge where it was
		r.gGen.Set(float64(meta.Generation))
	}
	return p, nil
}

// Reload loads and validates the artifact and swaps it into host,
// returning the new policy version. On error the served policy is
// unchanged: the failure is counted on both serve_reload_errors_total and
// policy_reload_failures_total and the version counter does not move, so a
// corrupt candidate is loudly observable without any service interruption.
func (r *Reloader) Reload(host PolicyHost) (uint32, error) {
	p, meta, err := r.load()
	if err != nil {
		r.mErrors.Inc()
		r.mFailures.Inc()
		return host.PolicyVersion(), fmt.Errorf("serve: reload %s: %w", r.path, err)
	}
	v := host.SetPolicy(p)
	if meta != nil {
		r.gGen.Set(float64(meta.Generation))
	}
	r.mReloads.Inc()
	return v, nil
}

// Watch starts the file poller: every Interval it stats the artifact and
// reloads it into host when the mtime or size moved. Errors are counted and
// the previous policy keeps serving; the same changed file is not retried
// until it changes again (a broken snapshot should not hot-loop the
// loader). Stop terminates the poller.
func (r *Reloader) Watch(host PolicyHost) {
	r.mu.Lock()
	if r.watching {
		r.mu.Unlock()
		return
	}
	r.watching = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(r.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				r.poll(host)
			}
		}
	}()
}

func (r *Reloader) poll(host PolicyHost) {
	st, err := os.Stat(r.path)
	if err != nil {
		return // file temporarily absent (mid-rename): next tick sees it
	}
	r.mu.Lock()
	changed := !st.ModTime().Equal(r.lastMod) || st.Size() != r.lastSize
	if changed {
		r.lastMod, r.lastSize = st.ModTime(), st.Size()
	}
	r.mu.Unlock()
	if changed {
		_, _ = r.Reload(host) // errors are counted; old policy keeps serving
	}
}

// Stop terminates a Watch poller (safe if Watch was never started; Stop
// before Watch also prevents a later Watch from polling).
func (r *Reloader) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	watching := r.watching
	r.mu.Unlock()
	if watching {
		<-r.done
	}
}
