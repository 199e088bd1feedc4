package main

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestAssimSmoke is `make assim-smoke`: 12 keeper-driven churn rounds
// against the default fabric with the coalescing partial FM forced on.
func TestAssimSmoke(t *testing.T) {
	cfg := experiment.DefaultDaemonConfig()
	cfg.Algorithm = core.Partial.Slug()
	if cfg.AssimWindowUS == 0 {
		cfg.AssimWindowUS = 200
	}
	if cfg.StaleAfterMS == 0 {
		cfg.StaleAfterMS = 5
	}
	d := newSmokeDaemon(t, cfg)
	if err := d.runAssimSmoke(t, 12); err != nil {
		t.Fatal(err)
	}
}

// runAssimSmoke is the continuous-assimilation verification behind
// `make assim-smoke`. It drives N keeper-driven churn rounds against the
// coalescing partial FM on a synthetic clock (every concern fires at its
// exact deadline, no wall sleeping), restores the fabric, and fails
// unless
//
//   - the final audited database matches the live ground truth with a
//     path-consistent view,
//   - the /metrics exposition served over a real socket shows coalesced
//     assimilation happened (events, coalesced subset, flushes) and the
//     DB-staleness gauges are populated, and
//   - no report is left stranded in the debounce window.
//
// It logs the sustained assimilated PI-5 rate in simulated time.
func (d *daemon) runAssimSmoke(t *testing.T, rounds int) error {
	if d.ch == nil {
		return fmt.Errorf("asifmd: assim-smoke needs churn (set churn_ops > 0)")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, d.handler())

	const interval = 100 * time.Millisecond
	now := time.Now()
	k := d.newKeeper(now, interval, true)
	startPS := d.now()
	for d.rounds < rounds {
		// Once returns the earliest next deadline; jumping the synthetic
		// clock straight to it exercises every concern's own cadence.
		now = k.Once(now)
	}
	d.mu.Lock()
	d.quiesce()
	pending := d.m.AssimPending()
	res, haveRes := d.m.LastResult()
	d.mu.Unlock()

	if pending != 0 {
		return fmt.Errorf("asifmd: %d reports stranded in the debounce window after quiesce", pending)
	}
	if !haveRes {
		return fmt.Errorf("asifmd: no discovery run ever completed")
	}
	if err := chaos.CheckConverged(d.f, d.m, res); err != nil {
		return fmt.Errorf("asifmd: post-quiesce audit diverged: %w", err)
	}

	// Scrape, then assert over the wire exactly what an operator's
	// dashboard would query.
	d.scrape()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ln.Addr()))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	points, _, err := obs.ParseProm(resp.Body)
	if err != nil {
		return fmt.Errorf("asifmd: /metrics did not parse: %w", err)
	}
	metric := func(name string) (float64, bool) {
		for _, pt := range points {
			if pt.Name == name {
				return pt.Value, true
			}
		}
		return 0, false
	}
	events, _ := metric("asi_fm_assim_events")
	coalesced, _ := metric("asi_fm_assim_events_coalesced")
	flushes, _ := metric("asi_fm_assim_flushes")
	if events == 0 || coalesced == 0 || flushes == 0 {
		return fmt.Errorf("asifmd: coalescing left no metric trace: %v events, %v coalesced, %v flushes",
			events, coalesced, flushes)
	}
	if flushes >= events {
		return fmt.Errorf("asifmd: %v flushes for %v events; coalescing saved nothing", flushes, events)
	}
	for _, name := range []string{"asi_fm_db_staleness_p50", "asi_fm_db_staleness_p99", "asi_fm_db_staleness_max"} {
		if _, ok := metric(name); !ok {
			return fmt.Errorf("asifmd: %s missing from /metrics", name)
		}
	}

	simSpan := d.now().Sub(startPS)
	perSec := 0.0
	if simSpan > 0 {
		perSec = events / (float64(simSpan) / float64(sim.Second))
	}
	s := d.rib.Stats()
	t.Logf("asifmd assim-smoke: %q %s: %d rounds, %d generations, %.0f PI-5s assimilated "+
		"(%.0f coalesced, %.0f flushes), sustained %.0f PI-5s/s (sim): OK",
		d.cfg.Topology, core.Partial.Slug(), d.rounds, s.Gen, events, coalesced, flushes, perSec)
	return nil
}
