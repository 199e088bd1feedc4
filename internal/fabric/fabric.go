// Package fabric is the executable model of an ASI switched fabric: x1
// links with credit-based flow control, multiplexed virtual cut-through
// switches, endpoints, per-device configuration spaces served over PI-4,
// PI-5 event reporting on port state changes, and device hot addition and
// removal. It corresponds to the physical/link-layer OPNET model of the
// paper (section 4.1), rebuilt on the deterministic event engine in
// internal/sim.
package fabric

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config sets the physical and timing parameters of the fabric model.
type Config struct {
	// LinkBandwidthGbps is the usable link bandwidth. The ASI x1 default
	// is 2.0 Gbps (2.5 Gbps raw minus 8b/10b overhead).
	LinkBandwidthGbps float64
	// Propagation is the cable flight time per link.
	Propagation sim.Duration
	// SwitchLatency is the header routing time of a cut-through switch.
	SwitchLatency sim.Duration
	// DeviceProcessing is the base time a fabric device needs to service
	// one PI-4 request (T_Device in the paper's Fig. 7b); the paper
	// observes it is small and independent of algorithm and fabric size.
	DeviceProcessing sim.Duration
	// DeviceFactor is the device processing-speed multiplier from the
	// paper's Figs. 8-9: service time = DeviceProcessing / DeviceFactor.
	DeviceFactor float64
	// CreditsPerVC is the per-VC receive buffer capacity, in packets, a
	// port advertises to its link partner.
	CreditsPerVC int
	// DetectDelay is the time a device needs to notice a local port
	// state change before it can emit a PI-5 event.
	DetectDelay sim.Duration
}

// DefaultConfig returns the parameters used throughout the paper's
// experiments (factors 1).
func DefaultConfig() Config {
	return Config{
		LinkBandwidthGbps: asi.LinkEffectiveGbps,
		Propagation:       25 * sim.Nanosecond,
		SwitchLatency:     100 * sim.Nanosecond,
		DeviceProcessing:  2 * sim.Microsecond,
		DeviceFactor:      1,
		CreditsPerVC:      8,
		DetectDelay:       1 * sim.Microsecond,
	}
}

// withDefaults fills zero fields with defaults so partially specified
// configs behave.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LinkBandwidthGbps <= 0 {
		c.LinkBandwidthGbps = d.LinkBandwidthGbps
	}
	if c.Propagation <= 0 {
		c.Propagation = d.Propagation
	}
	if c.SwitchLatency <= 0 {
		c.SwitchLatency = d.SwitchLatency
	}
	if c.DeviceProcessing <= 0 {
		c.DeviceProcessing = d.DeviceProcessing
	}
	if c.DeviceFactor <= 0 {
		c.DeviceFactor = d.DeviceFactor
	}
	if c.CreditsPerVC <= 0 {
		c.CreditsPerVC = d.CreditsPerVC
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = d.DetectDelay
	}
	return c
}

// DropReason classifies discarded packets.
type DropReason int

const (
	// DropDeadDevice: the packet arrived at or was sent by a removed
	// device.
	DropDeadDevice DropReason = iota
	// DropInactivePort: the egress port has no live link partner.
	DropInactivePort
	// DropRouteError: the turn pool was exhausted or encoded an invalid
	// turn.
	DropRouteError
	// DropNoHandler: a management packet reached an endpoint with no
	// attached management entity.
	DropNoHandler
	// DropFaultInjected: the installed FaultPlan discarded the packet.
	DropFaultInjected
	numDropReasons
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropDeadDevice:
		return "dead-device"
	case DropInactivePort:
		return "inactive-port"
	case DropRouteError:
		return "route-error"
	case DropNoHandler:
		return "no-handler"
	case DropFaultInjected:
		return "fault-injected"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Counters aggregates fabric-wide accounting.
type Counters struct {
	// TxPackets/TxBytes count link transmissions (per hop).
	TxPackets, TxBytes uint64
	// Delivered counts packets consumed by a device, per PI.
	Delivered map[asi.PI]uint64
	// Drops counts discarded packets by reason.
	Drops [numDropReasons]uint64
	// FaultDelays counts traversals the installed FaultPlan delivered
	// late; LinkFlaps counts flap windows that actually took a link down.
	FaultDelays uint64
	LinkFlaps   uint64
}

// Handler is a management entity attached to an endpoint (a fabric
// manager). The fabric calls it for every management packet delivered to
// the endpoint that the endpoint's own PI-4 configuration servicing does
// not consume: PI-4 completions, PI-5 events, and election traffic.
type Handler interface {
	HandlePacket(arrivalPort int, pkt *asi.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(arrivalPort int, pkt *asi.Packet)

// HandlePacket implements Handler.
func (h HandlerFunc) HandlePacket(arrivalPort int, pkt *asi.Packet) { h(arrivalPort, pkt) }

// Fabric is an instantiated ASI network bound to a simulation engine.
type Fabric struct {
	Engine *sim.Engine
	Topo   *topo.Topology
	cfg    Config
	rng    *sim.RNG

	devices []*Device
	links   []*link
	byDSN   map[asi.DSN]*Device

	counters Counters
	tracer   trace.Recorder
	faults   *faultState
	tel      *fabricTelemetry

	// spans is the causal span tracer (SetSpanTracer), nil when
	// detached; linkQueued stamps when traced packets entered a VC
	// queue, allocated only while spans is set.
	spans      *span.Tracer
	linkQueued map[*asi.Packet]sim.Time
}

// New instantiates the fabric described by t on the given engine. All
// devices power up alive with their cabled ports active. The topology must
// validate.
func New(e *sim.Engine, t *topo.Topology, cfg Config, rng *sim.RNG) (*Fabric, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	f := &Fabric{
		Engine: e,
		Topo:   t,
		cfg:    cfg.withDefaults(),
		rng:    rng,
		byDSN:  make(map[asi.DSN]*Device),
	}
	f.counters.Delivered = make(map[asi.PI]uint64)
	for _, n := range t.Nodes {
		d, err := newDevice(f, n)
		if err != nil {
			return nil, err
		}
		f.devices = append(f.devices, d)
		f.byDSN[d.DSN] = d
	}
	for _, l := range t.Links {
		lk := newLink(f, f.devices[l.A], l.APort, f.devices[l.B], l.BPort)
		lk.idx = len(f.links)
		f.links = append(f.links, lk)
		f.devices[l.A].ports[l.APort].link = lk
		f.devices[l.B].ports[l.BPort].link = lk
	}
	// Train every cabled link: ports become active, config spaces updated.
	for _, lk := range f.links {
		lk.setUp(true)
	}
	return f, nil
}

// Config returns the fabric's effective configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Device returns the device instantiated for a topology node.
func (f *Fabric) Device(id topo.NodeID) *Device { return f.devices[id] }

// Devices returns all devices in node-ID order.
func (f *Fabric) Devices() []*Device { return f.devices }

// DeviceByDSN looks a device up by serial number.
func (f *Fabric) DeviceByDSN(dsn asi.DSN) (*Device, bool) {
	d, ok := f.byDSN[dsn]
	return d, ok
}

// Counters returns a snapshot of fabric-wide accounting.
func (f *Fabric) Counters() Counters {
	c := f.counters
	c.Delivered = make(map[asi.PI]uint64, len(f.counters.Delivered))
	for k, v := range f.counters.Delivered {
		c.Delivered[k] = v
	}
	return c
}

// AliveReachableFrom counts devices currently alive and reachable from the
// given endpoint over live links — the "active and reachable devices"
// x-axis of the paper's Fig. 6(a).
func (f *Fabric) AliveReachableFrom(id topo.NodeID) int {
	start := f.devices[id]
	if !start.Alive() {
		return 0
	}
	seen := map[*Device]bool{start: true}
	queue := []*Device{start}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for p := range d.ports {
			pt := &d.ports[p]
			if pt.link == nil || !pt.link.up {
				continue
			}
			peer, _ := pt.link.otherEnd(d)
			if peer.Alive() && !seen[peer] {
				seen[peer] = true
				queue = append(queue, peer)
			}
		}
	}
	return len(seen)
}

// serialization returns the wire time of size bytes on a link.
func (f *Fabric) serialization(size int) sim.Duration {
	bits := float64(size * 8)
	ns := bits / f.cfg.LinkBandwidthGbps // Gbps: bits/ns
	return sim.Nanos(ns)
}

// deviceService returns the effective PI-4 service time at a fabric
// device under the configured speed factor.
func (f *Fabric) deviceService() sim.Duration {
	return f.cfg.DeviceProcessing.Scale(1 / f.cfg.DeviceFactor)
}

// SetTracer attaches a packet-event recorder; nil detaches it. Tracing
// costs nothing when detached.
func (f *Fabric) SetTracer(t trace.Recorder) { f.tracer = t }

// tracing reports whether a recorder is attached. Hot paths check it
// before building event details, so detached tracing never formats.
func (f *Fabric) tracing() bool { return f.tracer != nil }

// traceEvent records a packet event if a tracer is attached.
func (f *Fabric) traceEvent(kind trace.Kind, d *Device, port int, pkt *asi.Packet, detail string) {
	if f.tracer == nil {
		return
	}
	ev := trace.Event{
		At:     f.Engine.Now(),
		Kind:   kind,
		Port:   port,
		Detail: detail,
	}
	if d != nil {
		ev.Device = d.Label
	}
	if pkt != nil {
		ev.PI = pkt.Header.PI
		ev.Bytes = pkt.WireSize()
		if pkt.Payload != nil && ev.PI == 0 {
			ev.PI = pkt.Payload.ProtocolInterface()
		}
	}
	f.tracer.Record(ev)
}

// drop accounts a discarded packet.
func (f *Fabric) drop(r DropReason) {
	f.counters.Drops[r]++
	if f.tel != nil {
		f.tel.drops.Inc(int(r))
	}
}

// dropTraced accounts and traces a discarded packet with context.
func (f *Fabric) dropTraced(r DropReason, d *Device, port int, pkt *asi.Packet) {
	f.drop(r)
	f.traceEvent(trace.Drop, d, port, pkt, r.String())
	f.spanDrop(r, d, port, pkt)
}

// vcOf maps a packet to its virtual channel: multicast always rides the
// MVC, unicast follows the TC/VC mapping table.
func (f *Fabric) vcOf(pkt *asi.Packet) asi.VCID {
	if pkt.Header.Multicast {
		return asi.VCMulticast
	}
	m := asi.DefaultTCtoVC()
	return m[pkt.Header.TC&asi.MaxTrafficClass]
}
