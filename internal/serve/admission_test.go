package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// blockedPolicy parks every Action call until release is closed: a policy
// that has stopped answering, without any sleep for the test to race.
type blockedPolicy struct{ release chan struct{} }

func (p blockedPolicy) Action([]float64) float64 {
	<-p.release
	return 0
}

func counter(reg *telemetry.Registry, name string) int64 {
	m, _ := reg.Snapshot().Get(name)
	return m.Count
}

// TestAdmissionSlotFreedWhenAnswered is the regression test for the slot
// leak: an in-flight slot must come back when the request is answered, not
// when the deadline sweeper next reaches it. A closed loop of QueueDepth/2
// senders can never have more than QueueDepth/2 requests in flight, so it
// must see no shed and no fallback however many requests it pushes through
// and however far the sweeper lags behind a busy evaluator.
func TestAdmissionSlotFreedWhenAnswered(t *testing.T) {
	const queueDepth, perSender = 16, 400
	reg := telemetry.NewRegistry()
	_, addr := newTestServer(t, constPolicy{0.5},
		Options{Shards: 1, QueueDepth: queueDepth, Deadline: 5 * time.Second}, reg)
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var flagged atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < queueDepth/2; k++ {
		wg.Add(1)
		go func(flow uint64) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				res, err := client.InferFlow(flow, make([]float64, 8))
				if err != nil {
					t.Errorf("flow %d: %v", flow, err)
					return
				}
				if res.Flags != 0 || res.Action != 0.5 {
					flagged.Add(1)
				}
			}
		}(uint64(k + 1))
	}
	wg.Wait()
	if n := flagged.Load(); n != 0 {
		t.Errorf("%d of %d closed-loop requests were not answered by the policy", n, queueDepth/2*perSender)
	}
	if shed, fb := counter(reg, "serve_shed_total"), counter(reg, "serve_fallback_total"); shed != 0 || fb != 0 {
		t.Errorf("shed %d, fallback %d with at most %d of %d slots ever in use", shed, fb, queueDepth/2, queueDepth)
	}
	if m, _ := reg.Snapshot().Get("serve_queue_depth"); m.Value != 0 {
		t.Errorf("serve_queue_depth = %v with nothing in flight", m.Value)
	}
}

// TestAdmissionBoundsQueueBehindStalledPolicy pins where the bound on
// core.Service's pending queue lives now that submitting never blocks. A
// request the sweeper answered at its deadline gives its in-flight slot
// back, but it is still queued behind the stalled evaluator; once
// backlogFactor×QueueDepth are, every further request is shed at admission
// instead of joining them.
func TestAdmissionBoundsQueueBehindStalledPolicy(t *testing.T) {
	const queueDepth, total = 4, 80
	const bound = backlogFactor * queueDepth
	reg := telemetry.NewRegistry()
	policy := blockedPolicy{release: make(chan struct{})}
	srv, addr := newTestServer(t, policy,
		Options{Shards: 1, QueueDepth: queueDepth, Deadline: 2 * time.Millisecond}, reg)
	t.Cleanup(func() { close(policy.release) }) // runs before the server's Close
	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var shed, missed int
	for i := 0; i < total; i++ { // one at a time: never more than one unanswered
		res, err := client.Infer(make([]float64, 8))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.Shed():
			shed++
		case res.DeadlineMissed():
			missed++
		default:
			t.Fatalf("request %d answered by a policy that never returns: %+v", i, res)
		}
	}
	if missed != bound || shed != total-bound {
		t.Errorf("deadline fallbacks %d, shed %d; want %d and %d", missed, shed, bound, total-bound)
	}
	if queued, _ := srv.Stats(); queued != bound {
		t.Errorf("%d requests reached the stalled shard's queue, want %d×QueueDepth = %d", queued, backlogFactor, bound)
	}
	if m, _ := reg.Snapshot().Get("serve_queue_depth"); m.Value != 0 {
		t.Errorf("serve_queue_depth = %v with every request answered", m.Value)
	}
}

// TestAdmissionDeadlineFallbackOnTimeUnderSaturation: a shard whose policy
// has stalled must still answer on the deadline's schedule while the other
// shard's evaluator is saturated and never parks.
func TestAdmissionDeadlineFallbackOnTimeUnderSaturation(t *testing.T) {
	const deadline = 20 * time.Millisecond
	srv, addr := newTestServer(t, constPolicy{0.5}, Options{Shards: 2, Deadline: deadline}, nil)
	stalled := blockedPolicy{release: make(chan struct{})}
	srv.Sharded().Shard(0).SetPolicy(stalled)
	t.Cleanup(func() { close(stalled.release) })

	// One flow per shard.
	var flows [2]uint64
	for f, found := uint64(1), 0; found < 2; f++ {
		if i := srv.Sharded().ShardIndex(f); flows[i] == 0 {
			flows[i] = f
			found++
		}
	}

	busy, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 256; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := make([]float64, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := busy.InferFlow(flows[1], state); err != nil {
					t.Errorf("saturating sender: %v", err)
					return
				}
			}
		}()
	}

	probe, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	const probes = 25
	late := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		res, err := probe.InferFlow(flows[0], make([]float64, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !res.DeadlineMissed() {
			t.Fatalf("probe %d: want a deadline fallback from the stalled shard, got %+v", i, res)
		}
		late = append(late, time.Since(t0)-deadline)
	}
	close(stop)
	wg.Wait()

	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	t.Logf("fallback lateness past the %v deadline: median %v, max %v", deadline, late[probes/2], late[probes-1])
	// The median is the scheduler's steady behaviour; the maximum also
	// absorbs whatever else the host was doing.
	if late[probes/2] > 5*time.Millisecond {
		t.Errorf("median fallback arrived %v after the deadline, want within 5ms", late[probes/2])
	}
	if late[probes-1] > 100*time.Millisecond {
		t.Errorf("slowest fallback arrived %v after the deadline", late[probes-1])
	}
}
