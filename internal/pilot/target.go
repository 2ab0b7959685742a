// Promotion targets: how a sealed generation artifact reaches the serving
// fleet, and how the fleet's health flows back. Two transports cover the
// deployment shapes this repo runs:
//
//   - HostTarget drives an in-process serve.PolicyHost through the
//     Reloader's validated zero-drop hot-swap path — the embedded shape
//     (pilot and server in one process) and the shape the e2e tests pin.
//   - FileTarget publishes the artifact to the weights file an external
//     `astraea serve -reload` daemon watches, and reads health back off its
//     /metrics endpoint — the split-process shape CI's smoke runs.
//
// Both promote by atomically replacing the serving path with the sealed
// artifact bytes: the CRC seal means a torn or corrupt publish is refused
// by the loader on the other side (policy_reload_failures_total) while the
// incumbent keeps serving.

package pilot

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Target is where promotions go and where health comes from. Promote
// installs the sealed artifact at path onto the fleet (atomically: on error
// the previous policy is still serving); Health reads the fleet's
// cumulative degradation counters.
type Target interface {
	Promote(path string, meta core.PolicyMeta) error
	Health() (HealthSample, error)
}

// publish atomically replaces dst with the artifact at src.
func publish(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return fmt.Errorf("pilot: read artifact: %w", err)
	}
	return ckpt.WriteAtomic(dst, data, 0o644)
}

// HostTarget promotes onto an in-process PolicyHost via a serve.Reloader.
type HostTarget struct {
	host        serve.PolicyHost
	reloader    *serve.Reloader
	reg         *telemetry.Registry
	servingPath string
}

// NewHostTarget builds the in-process target: promotions publish the
// artifact to servingPath and hot-swap host through a Reloader validated
// against cfg (quantize-on-promote enabled — the serving default). reg is
// both where the Reloader's counters register and where Health reads the
// serve_* counters back; it must be the registry the host is instrumented
// on.
func NewHostTarget(host serve.PolicyHost, servingPath string, cfg core.Config, reg *telemetry.Registry) *HostTarget {
	rl := serve.NewReloader(servingPath, cfg)
	rl.Instrument(reg)
	return &HostTarget{host: host, reloader: rl, reg: reg, servingPath: servingPath}
}

// Promote publishes the artifact and hot-swaps it in. On reload failure the
// incumbent keeps serving and the error is returned (and counted on
// policy_reload_failures_total by the Reloader).
func (t *HostTarget) Promote(path string, meta core.PolicyMeta) error {
	if err := publish(path, t.servingPath); err != nil {
		return err
	}
	_, err := t.reloader.Reload(t.host)
	return err
}

// Health reads the serving counters off the shared registry.
func (t *HostTarget) Health() (HealthSample, error) {
	snap := t.reg.Snapshot()
	var h HealthSample
	if m, ok := snap.Get("serve_requests_total"); ok {
		h.Requests = m.Count
	}
	if m, ok := snap.Get("serve_fallback_total"); ok {
		h.Fallbacks = m.Count
	}
	if m, ok := snap.Get("serve_deadline_miss_total"); ok {
		h.DeadlineMisses = m.Count
	}
	return h, nil
}

// FileTarget promotes to an external `astraea serve` daemon: the artifact is
// published to the weights file the daemon's -reload watcher polls, and
// health is scraped from its /metrics endpoint.
type FileTarget struct {
	// ServingPath is the weights file the daemon watches.
	ServingPath string
	// MetricsURL is the daemon's /metrics endpoint (e.g.
	// "http://127.0.0.1:9090/metrics"). Empty disables confirmation and
	// makes Health return an error.
	MetricsURL string
	// ConfirmTimeout bounds how long Promote waits for the daemon's
	// serve_policy_generation gauge to reach the promoted generation
	// (0 = publish without confirmation). The wait covers the watcher's
	// poll interval plus the reload itself.
	ConfirmTimeout time.Duration
	// Client for scrapes; nil uses http.DefaultClient.
	Client *http.Client
}

// Promote publishes the artifact and, when confirmation is configured,
// waits for the daemon to report the new generation. A daemon that refuses
// the artifact (corrupt publish, wrong dimensions) keeps its old generation
// and the confirmation times out — promotion fails without ever breaking
// the fleet.
func (t *FileTarget) Promote(path string, meta core.PolicyMeta) error {
	if err := publish(path, t.ServingPath); err != nil {
		return err
	}
	if t.MetricsURL == "" || t.ConfirmTimeout <= 0 {
		return nil
	}
	deadline := time.Now().Add(t.ConfirmTimeout)
	for {
		vals, err := t.scrape()
		if err == nil {
			if gen, ok := vals["serve_policy_generation"]; ok && uint64(gen) == meta.Generation {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pilot: daemon did not confirm generation %d within %s",
				meta.Generation, t.ConfirmTimeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Health scrapes the daemon's degradation counters.
func (t *FileTarget) Health() (HealthSample, error) {
	vals, err := t.scrape()
	if err != nil {
		return HealthSample{}, err
	}
	return HealthSample{
		Requests:       int64(vals["serve_requests_total"]),
		Fallbacks:      int64(vals["serve_fallback_total"]),
		DeadlineMisses: int64(vals["serve_deadline_miss_total"]),
	}, nil
}

// scrape fetches and parses the Prometheus text exposition into a
// name → value map (unlabeled series only, which is all this repo emits
// for counters and gauges).
func (t *FileTarget) scrape() (map[string]float64, error) {
	if t.MetricsURL == "" {
		return nil, fmt.Errorf("pilot: file target has no metrics URL")
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(t.MetricsURL)
	if err != nil {
		return nil, fmt.Errorf("pilot: scrape %s: %w", t.MetricsURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pilot: scrape %s: status %s", t.MetricsURL, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, fmt.Errorf("pilot: scrape %s: %w", t.MetricsURL, err)
	}
	return parsePrometheus(string(body)), nil
}

// parsePrometheus extracts unlabeled `name value` samples from the text
// exposition format, skipping comments and labeled series.
func parsePrometheus(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.ContainsAny(fields[0], "{}") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}
