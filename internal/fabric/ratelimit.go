package fabric

import (
	"repro/internal/asi"
	"repro/internal/sim"
)

// Endpoint source injection rate limiting — one of the optional
// congestion-management mechanisms the ASI specification defines (paper
// section 2). A token bucket meters application traffic at the injection
// point; management packets (the highest traffic class) are exempt, so
// fabric control never competes with the limiter.

type rateLimiter struct {
	bytesPerSec float64
	burst       float64
	tokens      float64
	last        sim.Time
	queue       []*asi.Packet
	armed       bool
	// Delayed counts packets that had to wait for tokens.
	Delayed uint64
}

// SetInjectionRate installs (or, with gbps <= 0, removes) a token-bucket
// injection limiter on an endpoint. burstBytes is the bucket depth; it is
// clamped to at least one maximum-size packet so forward progress is
// always possible.
func (d *Device) SetInjectionRate(gbps float64, burstBytes int) {
	if d.Type != asi.DeviceEndpoint {
		panic("fabric: injection rate limiting applies to endpoints")
	}
	if gbps <= 0 {
		d.limiter = nil
		return
	}
	if burstBytes < 2176 {
		burstBytes = 2176
	}
	d.limiter = &rateLimiter{
		bytesPerSec: gbps * 1e9 / 8,
		burst:       float64(burstBytes),
		tokens:      float64(burstBytes),
		last:        d.f.Engine.Now(),
	}
}

// limited reports whether the packet is subject to rate limiting:
// management-class traffic always bypasses the limiter.
func limited(pkt *asi.Packet) bool {
	return pkt.Header.TC != asi.TCManagement
}

// injectLimited meters a packet through the bucket, transmitting
// immediately when tokens allow and queueing otherwise.
func (d *Device) injectLimited(pkt *asi.Packet) {
	l := d.limiter
	l.refillAt(d.f.Engine.Now())
	size := float64(pkt.WireSize())
	if len(l.queue) == 0 && l.tokens >= size {
		l.tokens -= size
		d.transmit(0, pkt)
		return
	}
	l.Delayed++
	l.queue = append(l.queue, pkt)
	d.armDrain()
}

// refillAt accrues tokens up to now.
func (l *rateLimiter) refillAt(now sim.Time) {
	dt := now.Sub(l.last).Seconds()
	l.last = now
	l.tokens += dt * l.bytesPerSec
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// armDrain schedules the next queued transmission for when its tokens
// will have accrued.
func (d *Device) armDrain() {
	l := d.limiter
	if l == nil || l.armed || len(l.queue) == 0 {
		return
	}
	need := float64(l.queue[0].WireSize()) - l.tokens
	var wait sim.Duration
	if need > 0 {
		wait = sim.Seconds(need / l.bytesPerSec)
		if wait < sim.Nanosecond {
			wait = sim.Nanosecond
		}
	}
	l.armed = true
	d.f.Engine.After(wait, func(*sim.Engine) {
		l.armed = false
		if d.limiter != l || !d.alive {
			return
		}
		l.refillAt(d.f.Engine.Now())
		for len(l.queue) > 0 {
			pkt := l.queue[0]
			size := float64(pkt.WireSize())
			if l.tokens < size {
				break
			}
			l.tokens -= size
			l.queue = l.queue[1:]
			d.transmit(0, pkt)
		}
		d.armDrain()
	})
}
