// Package netem emulates network paths at packet granularity: rate-limited
// links with droptail byte queues, propagation delay, stochastic loss,
// trace-driven variable capacity and multi-hop topologies. It plays the role
// Mahimahi and pantheon-tunnel play in the paper's testbed.
package netem

import (
	"sync"
	"sync/atomic"
)

// Packet is the unit of transmission. The transport layer owns the payload
// semantics (sequence numbers, ACK flags); netem only moves packets along a
// sequence of hops, delaying and dropping them.
//
// Packets are pool-recycled once their journey ends: after the deliver or
// drop callback returns, the packet is reset and reused. Callbacks must
// therefore copy out any fields they need rather than retaining the pointer.
type Packet struct {
	FlowID  int
	Seq     int64
	Size    int // bytes on the wire, including headers
	Ack     bool
	SentAt  float64 // transport timestamp of the data packet this traces back to
	Retrans bool

	// AckSeq and AckInfo carry receiver state back to the sender; opaque to
	// netem.
	AckSeq  int64
	AckInfo any

	hops    []Hop
	hopIdx  int
	deliver func(*Packet)
	onDrop  func(*Packet, string)
}

// Hop is one element of a path: anything that can accept a packet and
// eventually pass it on to the path's next hop (p.advance) or drop it.
type Hop interface {
	Send(p *Packet)
}

var packetPool = sync.Pool{New: func() any { poolAllocs.Add(1); return new(Packet) }}

// poolAllocs counts packets the pool had to allocate because no recycled
// one was available. The pool itself is process-wide (sync.Pool), so its
// recycling statistic is too; it is the only always-on counter in the
// package and sits on the rare miss path, not the per-packet one. Per-run
// registries import it lazily via Registry.GaugeFunc — see
// runner.InstrumentProcess.
var poolAllocs atomic.Int64

// PacketPoolAllocs returns how many packets have been heap-allocated since
// process start. Compare against the transport's packets-sent counters to
// judge recycling effectiveness: a healthy steady state allocates a few
// hundred packets (the in-flight high-water mark) and recycles everything
// after.
func PacketPoolAllocs() int64 { return poolAllocs.Load() }

// AcquirePacket returns a zeroed packet, recycled from the pool when
// possible. Packets handed to SendOver are released back automatically when
// they are delivered or dropped; directly-constructed packets also end up in
// the pool, which is harmless.
func AcquirePacket() *Packet { return packetPool.Get().(*Packet) }

func releasePacket(p *Packet) {
	*p = Packet{}
	packetPool.Put(p)
}

// SendOver launches p across hops; deliver runs when the last hop hands the
// packet over, onDrop (optional) when any hop drops it, with a reason string.
func SendOver(p *Packet, hops []Hop, deliver func(*Packet), onDrop func(*Packet, string)) {
	p.hops = hops
	p.hopIdx = 0
	p.deliver = deliver
	p.onDrop = onDrop
	p.advance()
}

func (p *Packet) advance() {
	if p.hopIdx >= len(p.hops) {
		p.deliver(p)
		releasePacket(p)
		return
	}
	h := p.hops[p.hopIdx]
	p.hopIdx++
	h.Send(p)
}

// Drop terminates the packet's journey and recycles the packet. Hops call
// this instead of next and must not touch the packet afterwards.
func (p *Packet) Drop(reason string) {
	if p.onDrop != nil {
		p.onDrop(p, reason)
	}
	releasePacket(p)
}
