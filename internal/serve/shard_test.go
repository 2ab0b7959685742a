package serve

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// echoPolicy returns the first state feature, so a response proves which
// request (and which submission order) produced it.
type echoPolicy struct{}

func (echoPolicy) Action(state []float64) float64 {
	if len(state) == 0 {
		return 0
	}
	return state[0]
}

func TestShardIndexDeterministicAndSpread(t *testing.T) {
	cfg := core.DefaultConfig()
	ss := NewShardedService(core.NewService(cfg, constPolicy{0}), 4)
	defer ss.Close()

	counts := make([]int, ss.NumShards())
	for flow := uint64(0); flow < 4096; flow++ {
		i := ss.ShardIndex(flow)
		if j := ss.ShardIndex(flow); j != i {
			t.Fatalf("ShardIndex(%d) unstable: %d then %d", flow, i, j)
		}
		counts[i]++
	}
	// Adjacent small integers must spread: no shard starved or hogging.
	for i, c := range counts {
		if c < 4096/4/2 || c > 4096/4*2 {
			t.Fatalf("shard %d got %d of 4096 flows (want near %d): %v", i, c, 4096/4, counts)
		}
	}
}

func TestShardedServicePoliciesAreIndependent(t *testing.T) {
	cfg := core.DefaultConfig()
	ref := core.NewReferencePolicy(cfg)
	ss := NewShardedService(core.NewService(cfg, ref), 3)
	defer ss.Close()

	seen := map[core.Policy]bool{}
	for i := 0; i < ss.NumShards(); i++ {
		p := ss.Shard(i).Policy()
		if seen[p] {
			t.Fatalf("shard %d shares a policy instance with an earlier shard", i)
		}
		seen[p] = true
	}

	ss.SetPolicy(core.NewReferencePolicy(cfg))
	seen = map[core.Policy]bool{}
	for i := 0; i < ss.NumShards(); i++ {
		p := ss.Shard(i).Policy()
		if seen[p] {
			t.Fatalf("after SetPolicy, shard %d shares a policy instance", i)
		}
		seen[p] = true
	}
}

// TestFlowOrderingAcrossShards pipelines interleaved flow-tagged requests
// over raw connections against a 4-shard server and asserts the ordering
// guarantee: for any one flow, responses appear on its connection in
// submission order, even while other flows' responses interleave freely.
func TestFlowOrderingAcrossShards(t *testing.T) {
	_, addr := newTestServer(t, echoPolicy{}, Options{
		Shards:     4,
		QueueDepth: 8192,
		Deadline:   5 * time.Second, // answers must come from the policy, not the sweeper
	}, nil)

	const (
		flows   = 8
		perFlow = 200
	)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// reqID encodes (flow, seq) so the reader can reconstruct per-flow order.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []byte
		for seq := 0; seq < perFlow; seq++ {
			buf = buf[:0]
			for flow := uint64(1); flow <= flows; flow++ {
				id := flow<<32 | uint64(seq)
				buf = appendFlowRequest(buf, id, []float64{float64(seq)}, flow, true)
			}
			if _, err := conn.Write(buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	nextSeq := make(map[uint64]uint64, flows)
	for got := 0; got < flows*perFlow; got++ {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("read response %d: %v", got, err)
		}
		reqID, res, err := decodeServedResponse(payload)
		if err != nil {
			t.Fatalf("decode response %d: %v", got, err)
		}
		if res.Fallback() {
			t.Fatalf("request %x answered by fallback; ordering not exercised", reqID)
		}
		flow, seq := reqID>>32, reqID&0xffffffff
		if want := nextSeq[flow]; seq != want {
			t.Fatalf("flow %d: response seq %d arrived, want %d (out of order)", flow, seq, want)
		}
		if res.Action != float64(seq) {
			t.Fatalf("flow %d seq %d: action %v, want the echoed seq", flow, seq, res.Action)
		}
		nextSeq[flow] = seq + 1
	}
	wg.Wait()
}

// TestUntaggedPipelineKeepsConnectionOrder: requests without a flow trailer
// inherit the connection's identity, so a plain pipelined sender sees
// strict FIFO responses even on a multi-shard server.
func TestUntaggedPipelineKeepsConnectionOrder(t *testing.T) {
	_, addr := newTestServer(t, echoPolicy{}, Options{
		Shards:     4,
		QueueDepth: 4096,
		Deadline:   5 * time.Second,
	}, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 500
	go func() {
		var buf []byte
		for i := uint64(0); i < n; i++ {
			buf = appendFlowRequest(buf[:0], i, []float64{float64(i)}, 0, false)
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	for want := uint64(0); want < n; want++ {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("read response %d: %v", want, err)
		}
		reqID, _, err := decodeServedResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if reqID != want {
			t.Fatalf("response %d arrived out of order (want %d)", reqID, want)
		}
	}
}

// TestVersionMonotonicAcrossHotReload hammers SetPolicy while a client
// infers across all shards and asserts the versions observed on one
// connection never go backwards — the all-shard swap plus write-time
// stamping make the version counter a monotonic, connection-observable
// event.
func TestVersionMonotonicAcrossHotReload(t *testing.T) {
	srv, addr := newTestServer(t, constPolicy{0.5}, Options{
		Shards:     4,
		QueueDepth: 4096,
		Deadline:   5 * time.Second,
	}, nil)

	client, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const reloads = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < reloads; i++ {
			srv.SetPolicy(constPolicy{float64(i)})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	state := []float64{1}
	last := uint32(0)
	first := uint32(0)
	for i := 0; ; i++ {
		res, err := client.InferFlow(uint64(i%16), state) // rotate across shards
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback() {
			t.Fatalf("infer %d answered by fallback", i)
		}
		if res.Version < last {
			t.Fatalf("version went backwards: %d after %d", res.Version, last)
		}
		if i == 0 {
			first = res.Version
		}
		last = res.Version
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	// The reloader finished; one more request must observe the final version.
	res, err := client.Infer(state)
	if err != nil {
		t.Fatal(err)
	}
	if want := srv.PolicyVersion(); res.Version != want {
		t.Fatalf("post-reload version %d, want %d", res.Version, want)
	}
	if res.Version < reloads+1 {
		t.Fatalf("final version %d does not reflect %d reloads (first observed %d)", res.Version, reloads, first)
	}
	if res.Version < last {
		t.Fatalf("final version %d below last observed %d", res.Version, last)
	}
}
