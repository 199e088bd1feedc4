package fabric

import (
	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
)

// link is a full-duplex cable between two device ports, modelled as two
// independent half links, each with its own serializer occupancy and
// credit state.
type link struct {
	f     *Fabric
	idx   int // topology link index, keys per-link fault rules
	a, b  *Device
	aPort int
	bPort int
	up    bool
	half  [2]halfLink // [0]: a->b, [1]: b->a
}

// halfLink is one direction of a link. Credits track the free receive
// buffer slots per VC at the far end; the sender consumes one per packet
// and the receiver returns it once the packet has left its input buffer.
//
// The transmit path is allocation-free in steady state: the VC queues are
// rings, the two kick handlers are bound once at link construction, and
// in-flight packets ride pooled flight records instead of per-packet
// closures.
type halfLink struct {
	busyUntil sim.Time
	queues    [asi.NumVCs]sim.Ring[*asi.Packet]
	credits   [asi.NumVCs]int

	// kickTimer re-runs the transmit scheduler when the serializer frees
	// while packets wait; kickFn is the unconditional post-transmit kick.
	kickTimer *sim.Timer
	kickFn    sim.Handler
	// deliverFn hands an arrived flight to the receiver; freeFlights is
	// the pool it recycles through.
	deliverFn   sim.ArgHandler
	freeFlights *flight
}

// flight is one packet in transit on a half link: the per-packet state an
// arrival event needs, pooled so sustained traffic schedules arrivals
// without allocating.
type flight struct {
	pkt  *asi.Packet
	vc   asi.VCID
	next *flight
}

func newLink(f *Fabric, a *Device, aPort int, b *Device, bPort int) *link {
	l := &link{f: f, a: a, aPort: aPort, b: b, bPort: bPort}
	for i := range l.half {
		h := &l.half[i]
		for vc := range h.credits {
			h.credits[vc] = f.cfg.CreditsPerVC
		}
		dirIdx := i
		sender := a
		if dirIdx == 1 {
			sender = b
		}
		h.kickFn = func(*sim.Engine) { l.kick(sender) }
		h.kickTimer = f.Engine.NewTimer(h.kickFn)
		h.deliverFn = func(_ *sim.Engine, arg any) { l.deliver(dirIdx, arg.(*flight)) }
	}
	return l
}

// halfFrom returns the transmit direction index for the given sender.
func (l *link) halfFrom(d *Device) int {
	if d == l.a {
		return 0
	}
	return 1
}

// otherEnd returns the device and port at the opposite end from d.
func (l *link) otherEnd(d *Device) (*Device, int) {
	if d == l.a {
		return l.b, l.bPort
	}
	return l.a, l.aPort
}

// portOf returns d's own port number on this link.
func (l *link) portOf(d *Device) int {
	if d == l.a {
		return l.aPort
	}
	return l.bPort
}

// setUp trains or drops the link, updating port activity and config
// spaces at both ends. Dropping the link discards queued packets and
// resets credits, as a retrain would.
func (l *link) setUp(up bool) {
	l.up = up
	for _, d := range []*Device{l.a, l.b} {
		port := l.portOf(d)
		peer, _ := l.otherEnd(d)
		active := up && d.Alive() && peer.Alive()
		d.setPortActive(port, active)
	}
	if !up {
		for i := range l.half {
			h := &l.half[i]
			sender := l.a
			if i == 1 {
				sender = l.b
			}
			for vc := range h.queues {
				l.f.spanFlushQueue(&h.queues[vc], sender, l.portOf(sender))
				h.queues[vc].Clear()
				h.credits[vc] = l.f.cfg.CreditsPerVC
			}
		}
	}
}

// send enqueues pkt for transmission from d over this link and starts the
// serializer if idle.
func (l *link) send(d *Device, pkt *asi.Packet) {
	if !l.up {
		l.f.drop(DropInactivePort)
		l.f.spanDrop(DropInactivePort, d, l.portOf(d), pkt)
		return
	}
	if l.f.faultDrop(l, d, pkt) {
		return
	}
	h := &l.half[l.halfFrom(d)]
	vc := l.f.vcOf(pkt)
	if l.f.spans != nil {
		l.f.spanQueueStamp(pkt)
	}
	h.queues[vc].Push(pkt)
	l.kick(d)
}

// vcDetails are the preformatted trace details for each virtual channel,
// so tracing a transmit never formats on the fly.
var vcDetails = [asi.NumVCs]string{"vc=0", "vc=1", "vc=2"}

// kick runs the transmit scheduler for d's direction: while the serializer
// is idle, pick the highest-priority VC with both a queued packet and a
// credit, and put it on the wire. Management traffic (highest VC) always
// wins arbitration, which is the property the paper relies on when it
// states application traffic scarcely influences discovery time.
func (l *link) kick(d *Device) {
	e := l.f.Engine
	dirIdx := l.halfFrom(d)
	h := &l.half[dirIdx]
	if h.busyUntil > e.Now() {
		if !h.kickTimer.Armed() {
			h.kickTimer.ScheduleAt(h.busyUntil)
		}
		return
	}
	if !l.up || !d.Alive() {
		return
	}
	// Highest VC index first: VC2 is the management channel.
	for vc := asi.NumVCs - 1; vc >= 0; vc-- {
		if h.queues[vc].Len() == 0 {
			continue
		}
		if h.credits[vc] <= 0 {
			// Head-of-line packet starved for credits: the wire sits idle
			// (for this VC) solely because the receiver's buffer is full.
			if l.f.tel != nil {
				l.f.tel.linkStall.Inc(l.idx)
			}
			if l.f.tracing() {
				l.f.traceEvent(trace.Stall, d, l.portOf(d), h.queues[vc].At(0), vcDetails[vc])
			}
			if l.f.spans != nil {
				if head := h.queues[vc].At(0); head.Span != 0 {
					l.f.spanInstant(span.KindStall, head, d, l.portOf(d), vcDetails[vc])
				}
			}
			continue
		}
		pkt := h.queues[vc].Pop()
		h.credits[vc]--
		if l.f.tel != nil {
			l.f.tel.linkTx.Inc(l.idx)
			l.f.tel.vcTx.Inc(vc)
		}
		if l.f.tracing() {
			l.f.traceEvent(trace.Transmit, d, l.portOf(d), pkt, vcDetails[vc])
		}
		ser := l.f.serialization(pkt.WireSize())
		h.busyUntil = e.Now().Add(ser)
		l.f.counters.TxPackets++
		l.f.counters.TxBytes += uint64(pkt.WireSize())
		extra := l.f.faultDelay(l)
		arrive := ser + l.f.cfg.Propagation + extra
		if l.f.spans != nil {
			l.f.spanWire(pkt, d, l.portOf(d), arrive, extra)
		}
		fl := h.freeFlights
		if fl == nil {
			fl = &flight{}
		} else {
			h.freeFlights = fl.next
		}
		fl.pkt = pkt
		fl.vc = asi.VCID(vc)
		e.AfterArg(arrive, h.deliverFn, fl)
		// Serializer free again at busyUntil; try the next packet.
		e.At(h.busyUntil, h.kickFn)
		return
	}
}

// deliver completes a flight: the record returns to the pool and the
// packet arrives at the receiving device.
func (l *link) deliver(dirIdx int, fl *flight) {
	h := &l.half[dirIdx]
	pkt, vc := fl.pkt, fl.vc
	fl.pkt = nil
	fl.next = h.freeFlights
	h.freeFlights = fl
	receiver, rxPort := l.b, l.bPort
	if dirIdx == 1 {
		receiver, rxPort = l.a, l.aPort
	}
	receiver.arrive(rxPort, vc, pkt, l, dirIdx)
}

// returnCredit hands a buffer slot back to the sender of the given
// direction and re-runs its transmit scheduler, since a packet may have
// been blocked on credits alone.
func (l *link) returnCredit(dirIdx int, vc asi.VCID) {
	if !l.up {
		return
	}
	h := &l.half[dirIdx]
	if h.credits[vc] < l.f.cfg.CreditsPerVC {
		h.credits[vc]++
	}
	sender := l.a
	if dirIdx == 1 {
		sender = l.b
	}
	l.kick(sender)
}
