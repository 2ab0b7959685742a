// Package transport implements the end-host side of the emulation: a
// cwnd-limited, optionally paced bulk sender with per-packet ACKs,
// QUIC-style packet-number loss detection (reordering threshold 3), RTO, and
// monitor-time-period (MTP) statistics collection. Congestion-control
// algorithms plug in through the CongestionControl interface, receiving ACK,
// loss and MTP events and steering the flow through cwnd/pacing setters —
// the same control surface the paper's kernel module exposes.
package transport

import (
	"math"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// MSS is the sender's fixed segment size in bytes (wire size; headers are
// not modelled separately).
const MSS = 1500

// AckEvent describes one acknowledged packet.
type AckEvent struct {
	PktNum   int64
	Bytes    int
	RTT      float64 // sample from this packet
	Now      float64
	SRTT     float64 // smoothed estimate after incorporating this sample
	MinRTT   float64 // lifetime minimum
	Inflight int     // packets still outstanding after this ack
}

// LossEvent describes one or more packets declared lost.
type LossEvent struct {
	PktNum  int64 // highest lost packet number in this event
	Bytes   int   // total bytes declared lost
	Packets int
	Timeout bool // true when declared by RTO rather than reordering
	Now     float64
}

// MTPStats summarizes a monitor time period, mirroring the statistics the
// paper's state block consumes (§3.3).
type MTPStats struct {
	Start, End float64
	Duration   float64

	ThroughputBps  float64 // acked bytes over the period, in bits/sec
	DeliveredBytes int
	LostBytes      int
	LossRate       float64 // lost / (lost + delivered), by bytes

	AvgRTT     float64 // mean of RTT samples in the period (0 if none)
	MinRTT     float64 // lifetime minimum RTT
	MaxTputBps float64 // lifetime maximum per-MTP throughput

	CwndPkts     float64
	InflightPkts int
	PacingBps    float64
	SendRateBps  float64 // bytes put on the wire over the period
}

// CongestionControl is implemented by every scheme in internal/cc and by
// the Astraea agent.
type CongestionControl interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Init is called once before the flow starts sending.
	Init(f *Flow)
	// OnAck fires for every acknowledged packet.
	OnAck(f *Flow, e AckEvent)
	// OnLoss fires once per loss event (a batch of packets declared lost
	// together produces a single event).
	OnLoss(f *Flow, e LossEvent)
	// OnMTP fires when a monitor period completes, if the scheme armed one
	// via Flow.ScheduleMTP.
	OnMTP(f *Flow, st MTPStats)
}

// sentRecord tracks one outstanding packet. Records live in the flow's
// ring, a circular window over the contiguous packet-number range
// [base, nextPktNum): packet numbers are dense and monotonic, so a ring
// index replaces the map+slice bookkeeping that used to cost one heap
// allocation and several map operations per packet (the dominant cost at
// hundreds of concurrent flows).
type sentRecord struct {
	bytes int
	state uint8
}

const (
	pktOutstanding uint8 = iota
	pktAcked
	pktLost
)

// Metrics is the transport telemetry bundle, typically shared by all flows
// of one scenario (counters are atomic). PacketsLost* count loss
// *declarations* — this transport models a bulk sender whose every packet
// carries new data, so a declared loss adjusts accounting and cwnd but no
// retransmission packet is emitted. A nil *Metrics is a valid no-op sink.
type Metrics struct {
	PacketsSent        *telemetry.Counter
	AcksReceived       *telemetry.Counter
	PacketsLostReorder *telemetry.Counter // declared by packet-threshold reordering
	PacketsLostTimeout *telemetry.Counter // declared by RTO expiry
	Timeouts           *telemetry.Counter // RTO fires that found packets outstanding
	RTT                *telemetry.Histogram
}

// RTTBuckets are the default upper bounds for the RTT sample histogram:
// 1 ms to ~8.2 s in powers of two, spanning datacenter to satellite paths.
func RTTBuckets() []float64 { return telemetry.ExponentialBuckets(0.001, 2, 14) }

// NewMetrics registers the transport instruments on reg and returns the
// bundle to pass via FlowConfig.Metrics. A nil reg yields a no-op bundle.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		PacketsSent:        reg.Counter("transport_packets_sent_total", "data packets put on the wire"),
		AcksReceived:       reg.Counter("transport_acks_received_total", "acknowledgements processed"),
		PacketsLostReorder: reg.Counter("transport_packets_lost_reorder_total", "packets declared lost by reordering detection"),
		PacketsLostTimeout: reg.Counter("transport_packets_lost_timeout_total", "packets declared lost by RTO"),
		Timeouts:           reg.Counter("transport_timeouts_total", "retransmission timeouts fired with packets outstanding"),
		RTT:                reg.Histogram("transport_rtt_seconds", "per-ack RTT samples", RTTBuckets()),
	}
}

// FlowConfig configures a flow.
type FlowConfig struct {
	ID    int
	Path  *netem.Path
	CC    CongestionControl
	Start float64
	// Duration stops the flow Start+Duration seconds in; zero means run
	// until the simulation ends.
	Duration float64
	// InitialCwnd in packets; defaults to 10 (RFC 6928).
	InitialCwnd float64
	// Metrics, when set, receives per-packet telemetry (see Metrics).
	Metrics *Metrics
}

// Flow is one bulk transfer.
type Flow struct {
	Sim *sim.Simulator
	ID  int
	CC  CongestionControl

	path *netem.Path

	cwnd      float64 // packets
	pacingBps float64 // 0 = unpaced (pure ack clocking)
	minCwnd   float64
	nextSend  float64
	sendTimer sim.Timer
	active    bool
	startAt   float64
	stopAt    float64

	nextPktNum int64
	// ring holds the records for packet numbers [base, nextPktNum); head is
	// the ring index of base. Capacity is a power of two and grows on
	// demand; acked/lost prefixes are compacted away so the window tracks
	// the true outstanding span.
	ring         []sentRecord
	base         int64
	head         int
	inflight     int
	largestAcked int64

	srtt, rttvar float64
	minRTT       float64
	lastAckAt    float64
	rtoTimer     sim.Timer
	rtoBackoff   float64

	// lifetime counters
	DeliveredBytes int64
	SentBytes      int64
	LostBytes      int64
	LostPackets    int64
	RTTSamples     int64

	// per-MTP window accounting
	mtpStart     float64
	mtpDelivered int
	mtpLost      int
	mtpSent      int
	mtpRTTSum    float64
	mtpRTTCount  int
	mtpTimer     sim.Timer
	maxTput      float64

	// deliverFn/ackFn and the three timer callbacks are method values bound
	// once at construction; passing f.deliverToReceiver (or f.onRTO) directly
	// would allocate a closure per packet (or per re-arm).
	deliverFn func(*netem.Packet)
	ackFn     func(*netem.Packet)
	sendFn    func()
	rtoFn     func()
	mtpFn     func()

	// metrics is never nil (noopMetrics when uninstrumented), so hot paths
	// pay only the counters' internal nil checks.
	metrics *Metrics

	// observers are called in registration order; see Observe.
	observers []FlowObserver
}

// FlowObserver receives a flow's events without interposing on its
// congestion control. Nil members are skipped.
type FlowObserver struct {
	// Send fires for every data packet put on the wire, after the flow's
	// counters are updated.
	Send func(now float64, bytes int)
	// Ack fires for every newly acknowledged packet, after the CC's OnAck.
	Ack func(e AckEvent)
	// Cwnd fires on every congestion-window change, after clamping.
	Cwnd func(now, cwnd float64)
	// Loss fires for every loss event, after the CC's OnLoss.
	Loss func(e LossEvent)
}

// Observe registers o. A flow calls its observers in registration order, so
// every observer composes the same way and none needs to know who else is
// listening. A stopped flow ignores late acks and timers, so its lifetime
// counters stay frozen at their values at the stop.
func (f *Flow) Observe(o FlowObserver) { f.observers = append(f.observers, o) }

// NewFlow builds a flow; call Start (or let the env do it) to begin.
func NewFlow(s *sim.Simulator, cfg FlowConfig) *Flow {
	icw := cfg.InitialCwnd
	if icw <= 0 {
		icw = 10
	}
	f := &Flow{
		Sim:          s,
		ID:           cfg.ID,
		CC:           cfg.CC,
		path:         cfg.Path,
		cwnd:         icw,
		minCwnd:      2,
		minRTT:       math.Inf(1),
		startAt:      cfg.Start,
		largestAcked: -1,
		rtoBackoff:   1,
	}
	if cfg.Duration > 0 {
		f.stopAt = cfg.Start + cfg.Duration
	}
	f.deliverFn = f.deliverToReceiver
	f.ackFn = f.onAckArrival
	f.sendFn = f.trySend
	f.rtoFn = f.onRTO
	f.mtpFn = f.fireMTP
	f.metrics = cfg.Metrics
	if f.metrics == nil {
		f.metrics = noopMetrics
	}
	return f
}

// noopMetrics backs uninstrumented flows: all counters are nil, so every
// increment is a single-branch no-op.
var noopMetrics = &Metrics{}

// Start schedules flow launch at its configured start time.
func (f *Flow) Start() {
	f.Sim.At(f.startAt, func() {
		f.active = true
		f.mtpStart = f.Sim.Now()
		f.CC.Init(f)
		f.trySend()
		f.armRTO()
		if f.stopAt > 0 {
			f.Sim.At(f.stopAt, f.stop)
		}
	})
}

func (f *Flow) stop() {
	f.active = false
	f.sendTimer.Cancel()
	f.mtpTimer.Cancel()
	f.rtoTimer.Cancel()
}

// Active reports whether the flow is currently sending.
func (f *Flow) Active() bool { return f.active }

// Cwnd returns the congestion window in packets.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// SetCwnd sets the congestion window (packets), clamped to the minimum.
func (f *Flow) SetCwnd(w float64) {
	if w < f.minCwnd {
		w = f.minCwnd
	}
	f.cwnd = w
	for i := range f.observers {
		if fn := f.observers[i].Cwnd; fn != nil {
			fn(f.Sim.Now(), w)
		}
	}
	f.trySend()
}

// PacingBps returns the pacing rate in bits/sec (0 = unpaced).
func (f *Flow) PacingBps() float64 { return f.pacingBps }

// SetPacingBps sets the pacing rate in bits/sec; zero disables pacing.
func (f *Flow) SetPacingBps(r float64) {
	if r < 0 {
		r = 0
	}
	f.pacingBps = r
	f.trySend()
}

// DefaultPacing sets pacing to cwnd/sRTT (the paper's mapping from cwnd to
// pacing rate) with a small headroom factor.
func (f *Flow) DefaultPacing() {
	rtt := f.srtt
	if rtt <= 0 {
		rtt = f.minRTT
	}
	if rtt <= 0 || math.IsInf(rtt, 0) {
		f.SetPacingBps(0)
		return
	}
	f.SetPacingBps(1.2 * f.cwnd * MSS * 8 / rtt)
}

// Inflight returns outstanding packets.
func (f *Flow) Inflight() int { return f.inflight }

// SRTT returns the smoothed RTT (0 before the first sample).
func (f *Flow) SRTT() float64 { return f.srtt }

// MinRTT returns the lifetime minimum RTT (+Inf before the first sample).
func (f *Flow) MinRTT() float64 { return f.minRTT }

// MaxTputBps returns the largest per-MTP throughput observed.
func (f *Flow) MaxTputBps() float64 { return f.maxTput }

// ScheduleMTP arms (or re-arms) the monitor period timer to fire d seconds
// from now. CC schemes call this from Init and typically again from OnMTP.
func (f *Flow) ScheduleMTP(d float64) {
	f.Sim.Reschedule(&f.mtpTimer, f.Sim.Now()+max(d, 0), f.mtpFn)
}

func (f *Flow) fireMTP() {
	if !f.active {
		return
	}
	now := f.Sim.Now()
	dur := now - f.mtpStart
	if dur <= 0 {
		dur = 1e-9
	}
	st := MTPStats{
		Start:          f.mtpStart,
		End:            now,
		Duration:       dur,
		ThroughputBps:  float64(f.mtpDelivered) * 8 / dur,
		DeliveredBytes: f.mtpDelivered,
		LostBytes:      f.mtpLost,
		CwndPkts:       f.cwnd,
		InflightPkts:   f.inflight,
		PacingBps:      f.pacingBps,
		SendRateBps:    float64(f.mtpSent) * 8 / dur,
		MinRTT:         f.minRTTOrZero(),
	}
	if tot := f.mtpDelivered + f.mtpLost; tot > 0 {
		st.LossRate = float64(f.mtpLost) / float64(tot)
	}
	if f.mtpRTTCount > 0 {
		st.AvgRTT = f.mtpRTTSum / float64(f.mtpRTTCount)
	}
	if st.ThroughputBps > f.maxTput {
		f.maxTput = st.ThroughputBps
	}
	st.MaxTputBps = f.maxTput
	f.mtpStart = now
	f.mtpDelivered, f.mtpLost, f.mtpSent = 0, 0, 0
	f.mtpRTTSum, f.mtpRTTCount = 0, 0
	f.CC.OnMTP(f, st)
}

func (f *Flow) minRTTOrZero() float64 {
	if math.IsInf(f.minRTT, 0) {
		return 0
	}
	return f.minRTT
}

// maxUnpacedBurst bounds how many packets an unpaced flow may emit from a
// single trySend call. Rate-based schemes park cwnd at effectively-infinite
// values; without pacing armed yet, an unbounded loop here would spin the
// simulator. Ack clocking and the RTO re-invoke trySend, so the bound does
// not limit steady-state throughput.
const maxUnpacedBurst = 4096

func (f *Flow) trySend() {
	if !f.active {
		return
	}
	now := f.Sim.Now()
	burst := 0
	for float64(f.inflight)+1 <= f.cwnd+1e-9 {
		if f.pacingBps == 0 {
			burst++
			if burst > maxUnpacedBurst {
				// Stop here; acks or the RTO will resume sending. Re-arming
				// a zero-delay event instead would freeze virtual time.
				return
			}
		}
		if f.pacingBps > 0 && now < f.nextSend-1e-12 {
			f.Sim.Reschedule(&f.sendTimer, f.nextSend, f.sendFn)
			return
		}
		f.sendPacket()
		if f.pacingBps > 0 {
			gap := MSS * 8 / f.pacingBps
			if f.nextSend < now {
				f.nextSend = now
			}
			f.nextSend += gap
		}
	}
}

// recordAt returns the record for packet num, or nil when the number is
// outside the tracked window (already compacted away, or never sent).
func (f *Flow) recordAt(num int64) *sentRecord {
	if num < f.base || num >= f.nextPktNum {
		return nil
	}
	return &f.ring[(f.head+int(num-f.base))&(len(f.ring)-1)]
}

// pushRecord appends the record for the packet about to carry number
// f.nextPktNum, growing the ring when the window is at capacity.
func (f *Flow) pushRecord(bytes int) {
	n := int(f.nextPktNum - f.base)
	if n >= len(f.ring) {
		f.growRing()
	}
	f.ring[(f.head+n)&(len(f.ring)-1)] = sentRecord{bytes: bytes}
}

func (f *Flow) growRing() {
	newCap := len(f.ring) * 2
	if newCap == 0 {
		newCap = 64
	}
	grown := make([]sentRecord, newCap)
	n := int(f.nextPktNum - f.base)
	for i := 0; i < n; i++ {
		grown[i] = f.ring[(f.head+i)&(len(f.ring)-1)]
	}
	f.ring, f.head = grown, 0
}

// compact advances the window past the prefix of records that are no
// longer outstanding, so the ring stays as small as the true in-flight
// span (plus any out-of-order holes).
func (f *Flow) compact() {
	mask := len(f.ring) - 1
	for f.base < f.nextPktNum && f.ring[f.head].state != pktOutstanding {
		f.head = (f.head + 1) & mask
		f.base++
	}
}

func (f *Flow) sendPacket() {
	num := f.nextPktNum
	now := f.Sim.Now()
	f.pushRecord(MSS)
	f.nextPktNum++
	f.inflight++
	f.SentBytes += MSS
	f.mtpSent += MSS
	f.metrics.PacketsSent.Inc()
	for i := range f.observers {
		if fn := f.observers[i].Send; fn != nil {
			fn(now, MSS)
		}
	}
	p := netem.AcquirePacket()
	p.FlowID, p.Seq, p.Size, p.SentAt = f.ID, num, MSS, now
	netem.SendOver(p, f.path.Forward, f.deliverFn, dropSilently)
}

// dropSilently is the shared no-op drop callback: the sender learns about
// losses through reordering detection or RTO, not instantly.
func dropSilently(*netem.Packet, string) {}

// deliverToReceiver models the receiver: immediately ACK every packet back
// over the reverse path.
func (f *Flow) deliverToReceiver(p *netem.Packet) {
	ack := netem.AcquirePacket()
	ack.FlowID, ack.Seq, ack.Size, ack.Ack, ack.SentAt = f.ID, p.Seq, 40, true, p.SentAt
	netem.SendOver(ack, f.path.Reverse, f.ackFn, dropSilently)
}

func (f *Flow) onAckArrival(p *netem.Packet) {
	if !f.active {
		return
	}
	rec := f.recordAt(p.Seq)
	if rec == nil || rec.state != pktOutstanding {
		return // already acknowledged, or declared lost (no ack credit)
	}
	now := f.Sim.Now()
	ackedBytes := rec.bytes
	rec.state = pktAcked
	f.inflight--
	f.compact()

	rttSample := now - p.SentAt
	f.updateRTT(rttSample)
	f.metrics.AcksReceived.Inc()
	f.metrics.RTT.Observe(rttSample)
	f.DeliveredBytes += int64(ackedBytes)
	f.mtpDelivered += ackedBytes
	f.mtpRTTSum += rttSample
	f.mtpRTTCount++
	f.RTTSamples++
	f.lastAckAt = now
	f.rtoBackoff = 1
	if p.Seq > f.largestAcked {
		f.largestAcked = p.Seq
	}

	e := AckEvent{
		PktNum: p.Seq, Bytes: ackedBytes, RTT: rttSample, Now: now,
		SRTT: f.srtt, MinRTT: f.minRTTOrZero(), Inflight: f.inflight,
	}
	f.detectLosses()
	f.CC.OnAck(f, e)
	for i := range f.observers {
		if fn := f.observers[i].Ack; fn != nil {
			fn(e)
		}
	}
	f.armRTO()
	f.trySend()
}

func (f *Flow) updateRTT(sample float64) {
	if sample < f.minRTT {
		f.minRTT = sample
	}
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
		return
	}
	const alpha, beta = 1.0 / 8, 1.0 / 4
	f.rttvar = (1-beta)*f.rttvar + beta*math.Abs(f.srtt-sample)
	f.srtt = (1-alpha)*f.srtt + alpha*sample
}

// detectLosses declares packets lost when 3 higher-numbered packets have
// been acknowledged (QUIC packet-threshold detection). It walks only the
// in-order prefix of outstanding packet numbers below the threshold.
func (f *Flow) detectLosses() {
	const reorderThreshold = 3
	threshold := f.largestAcked - reorderThreshold
	if threshold < 0 {
		return
	}
	var lostBytes, lostPkts int
	var highest int64
	mask := len(f.ring) - 1
	for f.base < f.nextPktNum && f.base <= threshold {
		rec := &f.ring[f.head]
		if rec.state == pktOutstanding {
			rec.state = pktLost
			lostBytes += rec.bytes
			lostPkts++
			highest = f.base
			f.inflight--
		}
		f.head = (f.head + 1) & mask
		f.base++
	}
	if lostPkts == 0 {
		return
	}
	f.LostBytes += int64(lostBytes)
	f.LostPackets += int64(lostPkts)
	f.mtpLost += lostBytes
	f.metrics.PacketsLostReorder.Add(int64(lostPkts))
	ev := LossEvent{PktNum: highest, Bytes: lostBytes, Packets: lostPkts, Now: f.Sim.Now()}
	f.CC.OnLoss(f, ev)
	f.observeLoss(ev)
}

func (f *Flow) observeLoss(ev LossEvent) {
	for i := range f.observers {
		if fn := f.observers[i].Loss; fn != nil {
			fn(ev)
		}
	}
}

// LargestAcked exposes the highest acknowledged packet number, used by CC
// schemes to implement once-per-window reaction (fast-recovery style).
func (f *Flow) LargestAcked() int64 { return f.largestAcked }

// NextPktNum exposes the next packet number to be sent.
func (f *Flow) NextPktNum() int64 { return f.nextPktNum }

func (f *Flow) rto() float64 {
	if f.srtt == 0 {
		return 1.0 * f.rtoBackoff
	}
	rto := f.srtt + 4*f.rttvar
	if rto < 0.2 {
		rto = 0.2
	}
	return rto * f.rtoBackoff
}

func (f *Flow) armRTO() {
	if !f.active {
		f.rtoTimer.Cancel()
		return
	}
	f.Sim.Reschedule(&f.rtoTimer, f.Sim.Now()+f.rto(), f.rtoFn)
}

func (f *Flow) onRTO() {
	if !f.active {
		return
	}
	if f.inflight == 0 {
		// Nothing outstanding (cwnd-limited edge); try sending again.
		f.trySend()
		f.armRTO()
		return
	}
	// Declare everything outstanding lost.
	var lostBytes, lostPkts int
	var highest int64
	if n := int(f.nextPktNum - f.base); n > 0 {
		mask := len(f.ring) - 1
		for i := 0; i < n; i++ {
			rec := &f.ring[(f.head+i)&mask]
			if rec.state != pktOutstanding {
				continue
			}
			rec.state = pktLost
			lostBytes += rec.bytes
			lostPkts++
			highest = f.base + int64(i)
		}
		// The whole window is resolved; drop it in one step.
		f.head = (f.head + n) & mask
		f.base = f.nextPktNum
	}
	f.inflight = 0
	if lostPkts > 0 {
		f.LostBytes += int64(lostBytes)
		f.LostPackets += int64(lostPkts)
		f.mtpLost += lostBytes
		f.metrics.PacketsLostTimeout.Add(int64(lostPkts))
		f.metrics.Timeouts.Inc()
		ev := LossEvent{
			PktNum: highest, Bytes: lostBytes, Packets: lostPkts,
			Timeout: true, Now: f.Sim.Now(),
		}
		f.CC.OnLoss(f, ev)
		f.observeLoss(ev)
	}
	f.rtoBackoff *= 2
	if f.rtoBackoff > 64 {
		f.rtoBackoff = 64
	}
	f.armRTO()
	f.trySend()
}
