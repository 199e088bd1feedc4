package fabric

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Device is an instantiated fabric device: a switch or an endpoint with
// its configuration space, ports and management-plane behaviour.
type Device struct {
	f     *Fabric
	ID    topo.NodeID
	Type  asi.DeviceType
	Label string
	DSN   asi.DSN
	// Config is the device's capability storage served over PI-4.
	Config *asi.ConfigSpace

	ports   []devPort
	alive   bool
	handler Handler

	// PI-4 servicing is a single serial server per device, as profiled
	// in the paper: requests queue and are serviced one at a time in
	// T_Device each. The in-service request parks in pi4Cur and the
	// completion fires through the reusable pi4Timer, so servicing never
	// allocates a closure per request.
	pi4Queue sim.Ring[pendingPI4]
	pi4Busy  bool
	pi4Cur   pendingPI4
	pi4Timer *sim.Timer

	// routeFn is the pre-bound cut-through routing callback; freeJobs
	// pools the per-packet state it needs, so switch forwarding never
	// allocates a closure per hop.
	routeFn  sim.ArgHandler
	freeJobs *routeJob

	// electSeen deduplicates flooded election announcements.
	electSeen map[electKey]bool
	pi5Seq    uint32

	// limiter optionally meters application-traffic injection.
	limiter *rateLimiter

	// RxPackets/RxBytes count packets delivered to (consumed by) this
	// device.
	RxPackets, RxBytes uint64
}

type devPort struct {
	link   *link
	active bool
}

type pendingPI4 struct {
	req  asi.PI4
	hdr  asi.RouteHeader
	port int
	// span is the causal-trace request ID carried by the request packet
	// (copied into the completion); queuedAt stamps when the request
	// entered the service queue. Both zero unless span tracing is on.
	span     uint64
	queuedAt sim.Time
}

// routeJob is the per-packet state of one deferred cut-through routing
// decision, pooled on the device.
type routeJob struct {
	l      *link
	dirIdx int
	vc     asi.VCID
	pkt    *asi.Packet
	port   int
	next   *routeJob
}

type electKey struct {
	cand asi.DSN
	seq  uint32
}

// dsnBase offsets device serial numbers so they never collide with node
// IDs in logs.
const dsnBase asi.DSN = 0xA510_0000

func newDevice(f *Fabric, n topo.Node) (*Device, error) {
	dsn := dsnBase + asi.DSN(n.ID)
	// Endpoints are FM-capable; in this model any endpoint can host a
	// fabric manager, and election picks the winners.
	cs, err := asi.NewConfigSpace(n.Type, dsn, n.Ports, 2176, n.Type == asi.DeviceEndpoint)
	if err != nil {
		return nil, fmt.Errorf("fabric: node %s: %w", n.Label, err)
	}
	d := &Device{
		f:         f,
		ID:        n.ID,
		Type:      n.Type,
		Label:     n.Label,
		DSN:       dsn,
		Config:    cs,
		ports:     make([]devPort, n.Ports),
		alive:     true,
		electSeen: make(map[electKey]bool),
	}
	d.pi4Timer = f.Engine.NewTimer(func(*sim.Engine) {
		if d.alive {
			d.completePI4(d.pi4Cur)
		}
		d.startNextPI4()
	})
	d.routeFn = func(_ *sim.Engine, arg any) { d.routePending(arg.(*routeJob)) }
	return d, nil
}

// Alive reports whether the device is powered and present in the fabric.
func (d *Device) Alive() bool { return d.alive }

// Ports returns the device's port count.
func (d *Device) Ports() int { return len(d.ports) }

// PortActive reports whether a port currently has a live link partner.
func (d *Device) PortActive(port int) bool {
	return port >= 0 && port < len(d.ports) && d.ports[port].active
}

// SetHandler attaches a management entity (fabric manager) to an endpoint.
func (d *Device) SetHandler(h Handler) {
	if d.Type != asi.DeviceEndpoint {
		panic("fabric: handlers attach to endpoints only")
	}
	d.handler = h
}

// setPortActive updates port state and the port-info capability blocks.
func (d *Device) setPortActive(port int, active bool) {
	if d.ports[port].active == active {
		return
	}
	d.ports[port].active = active
	info := asi.PortInfo{}
	if active {
		info = asi.PortInfo{Active: true, SpeedGbps: d.f.cfg.LinkBandwidthGbps, Width: 1}
	}
	if err := d.Config.SetPortState(port, info); err != nil {
		panic(err) // port index is internally generated
	}
}

// Inject transmits a packet from an endpoint into the fabric. Management
// entities use it to source PI-4 requests, PI-5 events and election
// announcements. Endpoints have a single port (port 0 in this model).
func (d *Device) Inject(pkt *asi.Packet) {
	if d.Type != asi.DeviceEndpoint {
		panic("fabric: Inject is for endpoints; switches forward only")
	}
	d.f.traceEvent(trace.Inject, d, 0, pkt, "")
	if d.limiter != nil && limited(pkt) {
		d.injectLimited(pkt)
		return
	}
	d.transmit(0, pkt)
}

// transmit puts pkt on the wire out the given port.
func (d *Device) transmit(port int, pkt *asi.Packet) {
	if !d.alive {
		d.f.dropTraced(DropDeadDevice, d, port, pkt)
		return
	}
	p := &d.ports[port]
	if p.link == nil || !p.active {
		d.f.dropTraced(DropInactivePort, d, port, pkt)
		return
	}
	p.link.send(d, pkt)
}

// arrive is called by the link when a packet has fully arrived at this
// device's port. The input buffer slot is returned to the sender once the
// device has routed the packet onward or consumed it.
func (d *Device) arrive(port int, vc asi.VCID, pkt *asi.Packet, l *link, dirIdx int) {
	e := d.f.Engine
	if !d.alive || !l.up {
		d.f.dropTraced(DropDeadDevice, d, port, pkt)
		l.returnCredit(dirIdx, vc)
		return
	}
	switch d.Type {
	case asi.DeviceEndpoint:
		// Endpoints sink everything addressed to them.
		l.returnCredit(dirIdx, vc)
		d.consume(port, pkt)
	case asi.DeviceSwitch:
		// Cut-through routing decision after the header latency.
		j := d.freeJobs
		if j == nil {
			j = &routeJob{}
		} else {
			d.freeJobs = j.next
		}
		j.l, j.dirIdx, j.vc, j.pkt, j.port = l, dirIdx, vc, pkt, port
		e.AfterArg(d.f.cfg.SwitchLatency, d.routeFn, j)
	}
}

// routePending completes a deferred cut-through routing decision: the
// input buffer slot goes back to the sender and the packet is routed (or
// dropped, if the switch died while the header was in flight).
func (d *Device) routePending(j *routeJob) {
	l, dirIdx, vc, pkt, port := j.l, j.dirIdx, j.vc, j.pkt, j.port
	j.l, j.pkt = nil, nil
	j.next = d.freeJobs
	d.freeJobs = j
	l.returnCredit(dirIdx, vc)
	if !d.alive {
		d.f.dropTraced(DropDeadDevice, d, port, pkt)
		return
	}
	d.routeAtSwitch(port, pkt)
}

// routeAtSwitch applies turn-pool routing (or election flooding) to a
// packet at a switch.
func (d *Device) routeAtSwitch(port int, pkt *asi.Packet) {
	if pkt.Header.PI == asi.PIElection {
		d.floodElection(port, pkt)
		return
	}
	if pkt.Header.Multicast {
		d.multicastForward(port, pkt)
		return
	}
	dec, err := route.SwitchRoute(&pkt.Header, len(d.ports), port)
	if err != nil {
		d.f.dropTraced(DropRouteError, d, port, pkt)
		return
	}
	if dec.Deliver {
		d.consume(port, pkt)
		return
	}
	d.transmit(dec.Out, pkt)
}

// floodElection forwards an election announcement on every active port
// except the arrival port, once per (candidate, sequence).
func (d *Device) floodElection(port int, pkt *asi.Packet) {
	el, ok := pkt.Payload.(asi.Election)
	if !ok {
		d.f.dropTraced(DropRouteError, d, port, pkt)
		return
	}
	key := electKey{el.Candidate, el.Sequence}
	if d.electSeen[key] || el.TTL == 0 {
		return
	}
	d.electSeen[key] = true
	el.TTL--
	for p := range d.ports {
		if p == port || !d.ports[p].active {
			continue
		}
		out := pkt.Clone()
		out.Payload = el
		d.transmit(p, out)
	}
}

// multicastForward replicates a multicast packet along the group's
// forwarding-table ports, excluding the arrival port. The table is part
// of the configuration space, programmed by the FM; an unknown group
// drops the packet, as hardware with an empty MFT entry must.
func (d *Device) multicastForward(port int, pkt *asi.Packet) {
	if int(pkt.Header.MGID) >= asi.MFTGroups {
		d.f.dropTraced(DropRouteError, d, port, pkt)
		return
	}
	blocks, err := d.Config.Read(asi.MFTEntryOffset(len(d.ports), pkt.Header.MGID), 1)
	if err != nil || blocks[0] == 0 {
		d.f.dropTraced(DropRouteError, d, port, pkt)
		return
	}
	mask := blocks[0]
	for p := 0; p < len(d.ports) && p < 32; p++ {
		if p == port || mask&(1<<uint(p)) == 0 {
			continue
		}
		d.transmit(p, pkt.Clone())
	}
}

// consume delivers a packet to this device: PI-4 requests enter the
// config-space service queue; everything else goes to the attached
// management entity (on endpoints) or is discarded.
func (d *Device) consume(port int, pkt *asi.Packet) {
	d.RxPackets++
	d.RxBytes += uint64(pkt.WireSize())
	d.f.counters.Delivered[pkt.Header.PI]++
	d.f.traceEvent(trace.Deliver, d, port, pkt, "")
	if p4, ok := pkt.Payload.(asi.PI4); ok && !p4.Op.IsCompletion() {
		pend := pendingPI4{req: p4, hdr: pkt.Header, port: port}
		if d.f.spans != nil {
			pend.span = pkt.Span
			pend.queuedAt = d.f.Engine.Now()
		}
		d.servicePI4(pend)
		return
	}
	if d.handler != nil {
		d.handler.HandlePacket(port, pkt)
		return
	}
	switch pkt.Payload.(type) {
	case asi.AppData:
		// Plain data sink.
	case asi.Election:
		// Non-candidate endpoint; announcement dies here.
	default:
		d.f.dropTraced(DropNoHandler, d, port, pkt)
	}
}

// servicePI4 queues a PI-4 request on the device's serial config-space
// server and starts it if idle.
func (d *Device) servicePI4(p pendingPI4) {
	d.pi4Queue.Push(p)
	if !d.pi4Busy {
		d.startNextPI4()
	}
}

func (d *Device) startNextPI4() {
	if d.pi4Queue.Len() == 0 {
		d.pi4Busy = false
		return
	}
	d.pi4Busy = true
	d.pi4Cur = d.pi4Queue.Pop()
	d.pi4Timer.ScheduleAfter(d.f.deviceService())
}

// completePI4 executes the request against the config space and sends the
// completion back the way the request came (header reversed, same port).
func (d *Device) completePI4(p pendingPI4) {
	resp := asi.PI4{Tag: p.req.Tag, Offset: p.req.Offset, Count: p.req.Count, ArrivalPort: uint8(p.port)}
	switch p.req.Op {
	case asi.PI4ReadRequest:
		data, err := d.Config.Read(p.req.Offset, p.req.Count)
		if err != nil {
			resp.Op = asi.PI4ReadCompletionError
		} else {
			resp.Op = asi.PI4ReadCompletionData
			resp.Data = data
		}
	case asi.PI4WriteRequest:
		if err := d.Config.Write(p.req.Offset, p.req.Data); err != nil {
			resp.Op = asi.PI4WriteCompletionError
		} else {
			resp.Op = asi.PI4WriteCompletion
		}
	case asi.PI4ClaimRequest:
		resp.Op, resp.Data = d.serviceClaim(p.req)
	default:
		resp.Op = asi.PI4ReadCompletionError
	}
	out := &asi.Packet{Header: p.hdr.Reverse(), Payload: resp}
	out.Header.PI = asi.PI4DeviceManagement
	if d.f.spans != nil && p.span != 0 {
		// Device-side timeline: queue wait (if any) then the T_Device
		// service interval, both under the owning request; the completion
		// carries the span ID back so the return hops attribute too.
		out.Span = p.span
		now := d.f.Engine.Now()
		start := now.Add(-d.f.deviceService())
		if p.queuedAt < start {
			d.f.spanComplete(span.KindDevQueue, out, p.queuedAt, start, d, p.port)
		}
		d.f.spanComplete(span.KindDevService, out, start, now, d, p.port)
	}
	d.transmit(p.port, out)
}

// serviceClaim atomically resolves a distributed-discovery ownership
// claim: Data = [generation, claimant]. A newer generation overwrites the
// stored owner; the completion always carries the resulting
// [generation, owner], so the requester learns whether it won.
func (d *Device) serviceClaim(req asi.PI4) (asi.PI4Op, []uint32) {
	if len(req.Data) < int(asi.OwnerBlocks) {
		return asi.PI4ReadCompletionError, nil
	}
	off := asi.OwnerOffset(len(d.ports))
	cur, err := d.Config.Read(off, asi.OwnerBlocks)
	if err != nil {
		return asi.PI4ReadCompletionError, nil
	}
	if req.Data[0] > cur[0] {
		if err := d.Config.Write(off, req.Data[:asi.OwnerBlocks]); err != nil {
			return asi.PI4ReadCompletionError, nil
		}
		cur = req.Data[:asi.OwnerBlocks]
	}
	out := make([]uint32, asi.OwnerBlocks)
	copy(out, cur)
	return asi.PI4ClaimCompletion, out
}

// LookupPath scans an endpoint's FM-programmed path table for the route
// to a destination endpoint. It models the local table consultation an
// ASI endpoint performs when sourcing unicast traffic.
func (d *Device) LookupPath(dst asi.DSN) (pool uint64, ptr uint8, ok bool) {
	if d.Type != asi.DeviceEndpoint {
		return 0, 0, false
	}
	for i := 0; i < asi.PathTableEntries; i++ {
		blocks, err := d.Config.Read(asi.PathEntryOffset(len(d.ports), i), asi.PathTableEntryBlocks)
		if err != nil {
			return 0, 0, false
		}
		entryDst, pool, ptr, valid := asi.DecodePathEntry(blocks)
		if !valid {
			return 0, 0, false // table is dense; first invalid slot ends it
		}
		if entryDst == dst {
			return pool, ptr, true
		}
	}
	return 0, 0, false
}

// EmitPI5 sends a PI-5 event toward the FM using the event route the FM
// programmed into this device's config space. Without a valid route the
// event is silently unreportable (the state before first discovery).
func (d *Device) EmitPI5(code asi.PI5EventCode, port int) {
	blocks, err := d.Config.Read(asi.EventRouteOffset(len(d.ports)), asi.EventRouteBlocks)
	if err != nil {
		return
	}
	pool, ptr, valid := asi.DecodeEventRoute(blocks)
	if !valid {
		return
	}
	d.pi5Seq++
	pkt := &asi.Packet{
		Header: asi.RouteHeader{
			TurnPool:    pool,
			TurnPointer: ptr,
			PI:          asi.PI5EventReporting,
			TC:          asi.TCManagement,
		},
		Payload: asi.PI5{Code: code, Port: uint8(port), Reporter: d.DSN, Sequence: d.pi5Seq},
	}
	// The event leaves through any active port along its source route.
	// For endpoints that is port 0; switches source the packet at the
	// first hop of the encoded route, which by construction starts at
	// this device, so transmit out the port the route's first turn
	// selects. Switch-sourced PI-5 uses the same turn consumption as a
	// forwarded packet would, with an assumed virtual ingress port.
	if d.Type == asi.DeviceEndpoint {
		d.transmit(0, pkt)
		return
	}
	dec, err := route.SwitchRoute(&pkt.Header, len(d.ports), asi.SourceVirtualIngress)
	if err != nil || dec.Deliver {
		d.f.dropTraced(DropRouteError, d, asi.SourceVirtualIngress, pkt)
		return
	}
	d.transmit(dec.Out, pkt)
}
