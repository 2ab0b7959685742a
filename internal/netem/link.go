package netem

import (
	"math"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// LinkConfig describes a rate-limited link with a droptail byte queue.
type LinkConfig struct {
	// RateBps is the link capacity in bits per second.
	RateBps float64
	// Delay is the one-way propagation delay in seconds.
	Delay float64
	// QueueBytes is the droptail buffer limit. Zero means effectively
	// unbounded (2^60 bytes; 2^28 where int is 32 bits).
	QueueBytes int
	// LossProb drops each arriving packet independently with this
	// probability, emulating non-congestive (random) loss.
	LossProb float64
	// Discipline selects the queueing policy (nil = DropTail). RED and
	// CoDel implement the paper's "user-defined queuing policies".
	Discipline QueueDiscipline
}

// LinkStats aggregates what happened on a link since creation.
type LinkStats struct {
	Arrived     int64
	Delivered   int64
	TailDrops   int64 // enqueue-side drops (buffer full or AQM early drop)
	AQMDrops    int64 // dequeue-side AQM drops (CoDel)
	RandomDrops int64
	BytesOut    int64
}

// LinkMetrics is the telemetry bundle links report into: enqueues, drops
// broken down by cause, and deliveries. One bundle is typically shared by
// every link of a scenario (the counters are atomic); the zero value and a
// nil *LinkMetrics are valid no-op sinks.
type LinkMetrics struct {
	Enqueued    *telemetry.Counter
	TailDrops   *telemetry.Counter
	AQMDrops    *telemetry.Counter
	RandomDrops *telemetry.Counter
	Delivered   *telemetry.Counter
}

// NewLinkMetrics registers the link counters on reg and returns the bundle
// to assign to Link.Metrics. A nil reg yields a no-op bundle.
func NewLinkMetrics(reg *telemetry.Registry) *LinkMetrics {
	return &LinkMetrics{
		Enqueued:    reg.Counter("netem_enqueued_total", "packets admitted to a link queue"),
		TailDrops:   reg.Counter("netem_drops_tail_total", "enqueue-side drops (buffer full or AQM early drop)"),
		AQMDrops:    reg.Counter("netem_drops_aqm_total", "dequeue-side AQM drops (CoDel)"),
		RandomDrops: reg.Counter("netem_drops_random_total", "stochastic (non-congestive) drops"),
		Delivered:   reg.Counter("netem_delivered_total", "packets fully serialized onto the wire"),
	}
}

// Link is a store-and-forward hop: packets are serialized at the link rate,
// wait behind the queue, then experience propagation delay. The rate can be
// changed at runtime (trace playback).
type Link struct {
	Sim  *sim.Simulator
	Name string

	// Metrics, when set, receives per-packet telemetry. Leave nil for an
	// uninstrumented link; the counters are nil-safe either way.
	Metrics *LinkMetrics

	cfg     LinkConfig
	rateBps float64

	// queue is a ring buffer (power-of-two capacity): qHead indexes the
	// oldest waiting packet, qLen counts them. A plain append+reslice queue
	// loses front capacity on every dequeue, so fan-in bursts (hundreds of
	// flows dumping into one buffer) forced periodic reallocation and kept
	// dead *Packet pointers reachable in the abandoned arrays; the ring
	// reaches steady state with zero allocation and zeroes each slot on
	// dequeue.
	queue    []queued
	qHead    int
	qLen     int
	qBytes   int
	stats    LinkStats
	maxQSeen int

	// inService is the packet being serialized; nil when the link is idle.
	inService *Packet
	// txDone is finishTx bound once, so scheduling a serialization
	// allocates nothing.
	txDone func()
	// prop carries serialized packets across the propagation delay.
	prop *sim.Line[*Packet]

	// OnQueueSample, when set, is invoked at each dequeue with the current
	// queue occupancy in bytes (for experiments that watch the bottleneck).
	OnQueueSample func(t float64, qBytes int)
}

type queued struct {
	p        *Packet
	enqueued float64
}

// NewLink builds a link driven by s.
func NewLink(s *sim.Simulator, name string, cfg LinkConfig) *Link {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = math.MaxInt>>3 + 1
	}
	if cfg.Discipline == nil {
		cfg.Discipline = DropTail{}
	}
	// Stateful disciplines are cloned so this link owns private state: the
	// caller's instance may sit in a Scenario that is rerun or fanned
	// across batch workers, and sharing the mutable EWMA/drop schedule
	// would bleed state across runs (and race across workers).
	if cl, ok := cfg.Discipline.(Cloner); ok {
		cfg.Discipline = cl.CloneDiscipline()
	}
	if red, ok := cfg.Discipline.(*RED); ok && red.Rand == nil {
		red.Rand = s.Rand().Float64
	}
	l := &Link{Sim: s, Name: name, cfg: cfg, rateBps: cfg.RateBps}
	l.txDone = l.finishTx
	l.prop = sim.NewLine(s, (*Packet).advance)
	return l
}

// SetRateBps changes the service rate; in-flight serialization finishes at
// the old rate, subsequent packets use the new one.
func (l *Link) SetRateBps(r float64) {
	if r <= 0 {
		r = 1 // a dead-stopped link would stall the event loop; crawl instead
	}
	l.rateBps = r
}

// RateBps returns the current service rate in bits per second.
func (l *Link) RateBps() float64 { return l.rateBps }

// Config returns the link's static configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Stats returns a copy of the accumulated counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueBytes returns current queue occupancy (excluding the packet in
// service).
func (l *Link) QueueBytes() int { return l.qBytes }

// QueueLen returns the number of packets waiting in the queue (excluding
// the packet in service).
func (l *Link) QueueLen() int { return l.qLen }

// pushQueue appends item to the ring, growing it when full.
func (l *Link) pushQueue(item queued) {
	if l.qLen == len(l.queue) {
		newCap := len(l.queue) * 2
		if newCap == 0 {
			newCap = 16
		}
		grown := make([]queued, newCap)
		for i := 0; i < l.qLen; i++ {
			grown[i] = l.queue[(l.qHead+i)&(len(l.queue)-1)]
		}
		l.queue, l.qHead = grown, 0
	}
	l.queue[(l.qHead+l.qLen)&(len(l.queue)-1)] = item
	l.qLen++
}

// popQueue removes and returns the oldest waiting packet, zeroing its slot
// so the ring retains no packet pointers after the burst drains.
func (l *Link) popQueue() queued {
	item := l.queue[l.qHead]
	l.queue[l.qHead] = queued{}
	l.qHead = (l.qHead + 1) & (len(l.queue) - 1)
	l.qLen--
	return item
}

// InService reports whether a packet is currently being serialized onto the
// wire. Together with QueueLen and Stats it closes the link's conservation
// identity: Arrived == Delivered + drops + QueueLen + InService.
func (l *Link) InService() bool { return l.inService != nil }

// MaxQueueBytes returns the high-water mark of queue occupancy.
func (l *Link) MaxQueueBytes() int { return l.maxQSeen }

// Send implements Hop.
func (l *Link) Send(p *Packet) {
	l.stats.Arrived++
	if l.cfg.LossProb > 0 && l.Sim.Rand().Float64() < l.cfg.LossProb {
		l.stats.RandomDrops++
		if m := l.Metrics; m != nil {
			m.RandomDrops.Inc()
		}
		p.Drop("random")
		return
	}
	if !l.cfg.Discipline.Admit(l.Sim.Now(), l.qBytes, l.cfg.QueueBytes, p) {
		l.stats.TailDrops++
		if m := l.Metrics; m != nil {
			m.TailDrops.Inc()
		}
		p.Drop("tail")
		return
	}
	if m := l.Metrics; m != nil {
		m.Enqueued.Inc()
	}
	l.pushQueue(queued{p, l.Sim.Now()})
	l.qBytes += p.Size
	if l.qBytes > l.maxQSeen {
		l.maxQSeen = l.qBytes
	}
	if l.inService == nil {
		l.serveNext()
	}
}

// serveNext starts serializing the oldest waiting packet, or marks the link
// idle when none is waiting. A packet the AQM drops at dequeue still holds
// the in-service slot while its drop callback runs, so a re-entrant Send
// queues behind it exactly as it would behind a packet on the wire.
func (l *Link) serveNext() {
	if l.qLen == 0 {
		l.inService = nil
		return
	}
	item := l.popQueue()
	l.inService = item.p
	l.qBytes -= item.p.Size
	if l.OnQueueSample != nil {
		l.OnQueueSample(l.Sim.Now(), l.qBytes)
	}
	if l.cfg.Discipline.OnDequeue(l.Sim.Now(), l.Sim.Now()-item.enqueued, item.p) {
		l.stats.AQMDrops++
		if m := l.Metrics; m != nil {
			m.AQMDrops.Inc()
		}
		item.p.Drop("aqm")
		l.serveNext()
		return
	}
	txTime := float64(item.p.Size*8) / l.rateBps
	if math.IsInf(txTime, 0) || math.IsNaN(txTime) {
		txTime = 0
	}
	l.Sim.After(txTime, l.txDone)
}

// finishTx runs when the in-service packet is fully on the wire.
func (l *Link) finishTx() {
	p := l.inService
	l.stats.Delivered++
	l.stats.BytesOut += int64(p.Size)
	if m := l.Metrics; m != nil {
		m.Delivered.Inc()
	}
	// Propagation happens off the serialization path: the link is free to
	// serve the next packet while this one flies.
	l.prop.Push(arrival(l.Sim, l.cfg.Delay), p)
	l.serveNext()
}

// arrival is when a packet entering a constant delay d now comes out; a
// negative delay counts as zero, as it does for sim.After.
func arrival(s *sim.Simulator, d float64) float64 {
	return s.Now() + max(d, 0)
}

// DelayHop adds pure propagation delay with no queuing or rate limit. Used
// for per-flow extra delay (RTT heterogeneity) and reverse paths.
type DelayHop struct {
	Sim   *sim.Simulator
	Delay float64

	line *sim.Line[*Packet] // created on first Send
}

// Send implements Hop.
func (d *DelayHop) Send(p *Packet) {
	if d.line == nil {
		d.line = sim.NewLine(d.Sim, (*Packet).advance)
	}
	d.line.Push(arrival(d.Sim, d.Delay), p)
}

// JitterHop adds random uniform delay in [0, Max), emulating scheduling
// noise on wide-area paths. Random delays reorder packets, so it schedules
// each one as its own event rather than through a delay line.
type JitterHop struct {
	Sim *sim.Simulator
	Max float64
}

// Send implements Hop.
func (j *JitterHop) Send(p *Packet) {
	j.Sim.After(j.Sim.Rand().Float64()*j.Max, p.advance)
}
