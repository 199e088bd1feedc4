// Package experiment reproduces the paper's evaluation: it builds
// fabrics, drives the management protocol through the paper's scenarios
// (initial discovery, event-route distribution, a topological change,
// PI-5 detection, change assimilation), and renders each table and figure
// of section 4 as a textual report. Independent simulation runs execute
// in parallel across a worker pool.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Change selects the topological change injected after the transient
// period, as in the paper: "the addition or removal of a randomly chosen
// fabric switch".
type Change int

const (
	// NoChange measures the discovery of the fully active fabric
	// (paper Figs. 4, 7 and 8: "assuming that all fabric devices are
	// active").
	NoChange Change = iota
	// RemoveSwitch hot-removes a random switch; PI-5 reports trigger
	// the measured rediscovery.
	RemoveSwitch
	// AddSwitch boots the fabric with one random switch absent and
	// hot-adds it after the transient.
	AddSwitch
)

// String names the change.
func (c Change) String() string {
	switch c {
	case NoChange:
		return "none"
	case RemoveSwitch:
		return "remove"
	case AddSwitch:
		return "add"
	default:
		return fmt.Sprintf("Change(%d)", int(c))
	}
}

// Outcome carries one run's measurements.
type Outcome struct {
	Config Config
	// PhysicalNodes is the total device count of the built topology
	// (the x-axis of Fig. 6b); Switches its switch count.
	PhysicalNodes int
	Switches      int
	// ActiveNodes counts devices alive and reachable from the FM after
	// the change (the x-axis of Fig. 6a).
	ActiveNodes int
	// Result is the measured discovery: the change-triggered run, or
	// the initial discovery for NoChange.
	Result core.Result
	// Initial is the transient-period discovery that preceded the
	// change.
	Initial core.Result
	// Err reports a failed run (e.g. no PI-5 reached the FM).
	Err error
	// Events counts the simulation events the engine processed for this
	// run (all phases: transient, change, assimilation). Together with
	// wall-clock time it yields the simulator's events/sec throughput.
	Events uint64
	// Telemetry is the run's end-of-run metric snapshot, non-nil only
	// when Config.Telemetry was set.
	Telemetry *telemetry.Snapshot
	// Spans is the run's causal span log, non-nil only when
	// Config.Spans was set.
	Spans *span.Log
}

// spanCap bounds the per-run span log. A full discovery of the largest
// Table 1 topology stays well under this; if a pathological fault plan
// exceeds it, the tracer counts the overflow in Log.Dropped instead of
// growing without bound.
const spanCap = 1 << 20

// totalEvents accumulates Engine.Processed across every Run, including
// runs executing concurrently under RunAll's worker pool.
var totalEvents atomic.Uint64

// TakeProcessedEvents returns the number of simulation events processed
// by all Runs since the previous call, and resets the tally. Reporting
// layers (asibench, benchmarks) use it to derive aggregate events/sec.
func TakeProcessedEvents() uint64 {
	return totalEvents.Swap(0)
}

// RunConfig executes one run configuration to completion.
func RunConfig(cfg Config) (out Outcome) {
	out = Outcome{Config: cfg}
	tp, err := topo.ByName(cfg.Topology)
	if err != nil {
		out.Err = err
		return out
	}
	out.PhysicalNodes = len(tp.Nodes)
	out.Switches = tp.NumSwitches()

	e := sim.NewEngine()
	var (
		reg       *telemetry.Registry
		wallStart time.Time
		f         *fabric.Fabric
		sp        *span.Tracer
	)
	if cfg.Telemetry {
		reg = telemetry.New()
		wallStart = time.Now()
	}
	if cfg.Spans {
		sp = span.New(spanCap)
	}
	defer func() {
		out.Events = e.Processed
		totalEvents.Add(e.Processed)
		if sp != nil {
			l := sp.Log()
			out.Spans = &l
		}
		if reg == nil {
			return
		}
		// Cold end-of-run publication: fold the fabric and engine tallies
		// into the registry, then freeze everything into the Outcome.
		if f != nil {
			f.FinishTelemetry(reg)
		}
		e.RecordTelemetry(reg, time.Since(wallStart))
		s := reg.Snapshot()
		out.Telemetry = &s
	}()
	rng := sim.NewRNG(cfg.Seed*2654435761 + 1)
	f, err = fabric.New(e, tp, fabric.Config{DeviceFactor: cfg.DeviceFactor}, rng)
	if err != nil {
		out.Err = err
		return out
	}
	if cfg.Trace != nil {
		f.SetTracer(cfg.Trace)
	}
	if reg != nil {
		f.EnableTelemetry(reg)
	}
	if sp != nil {
		f.SetSpanTracer(sp)
	}
	plan := fabric.FaultPlan{}
	switch {
	case cfg.Faults != nil:
		plan = *cfg.Faults
	case cfg.LossRate > 0:
		plan = fabric.Uniform(cfg.LossRate)
	}
	if err := f.SetFaultPlan(plan); err != nil {
		out.Err = err
		return out
	}
	ep := f.Device(tp.Endpoints()[0])
	m := core.NewManager(f, ep, core.Options{
		Algorithm:    cfg.Algorithm,
		FMFactor:     cfg.FMFactor,
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: cfg.RetryBackoff,
		Telemetry:    reg,
		Spans:        sp,
	})

	// Pick the changed switch up front (never the FM's host switch,
	// which would cut the manager off entirely).
	var target topo.NodeID = -1
	if cfg.Change != NoChange {
		hostSwitch, _, _ := tp.Peer(ep.ID, 0)
		for {
			target = f.RandomSwitch(rng)
			if target != hostSwitch {
				break
			}
		}
	}
	if cfg.Change == AddSwitch {
		if err := f.SetDeviceDown(target, true); err != nil {
			out.Err = err
			return out
		}
	}

	// Transient period: initial discovery and event-route distribution.
	var results []core.Result
	m.OnDiscoveryComplete = func(r core.Result) { results = append(results, r) }
	m.StartDiscovery()
	e.Run()
	if len(results) != 1 {
		out.Err = fmt.Errorf("experiment: initial discovery produced %d results", len(results))
		return out
	}
	out.Initial = results[0]
	var distErr error
	m.DistributeEventRoutes(func(d core.DistResult) {
		if d.Failures > 0 {
			distErr = fmt.Errorf("experiment: %d event-route failures", d.Failures)
		}
	})
	e.Run()
	if distErr != nil {
		out.Err = distErr
		return out
	}

	if cfg.Change == NoChange {
		out.Result = out.Initial
		out.ActiveNodes = f.AliveReachableFrom(ep.ID)
		return out
	}

	// Inject the change; PI-5 reports trigger the measured assimilation.
	switch cfg.Change {
	case RemoveSwitch:
		err = f.SetDeviceDown(target, false)
	case AddSwitch:
		err = f.SetDeviceUp(target, false)
	}
	if err != nil {
		out.Err = err
		return out
	}
	e.Run()
	if len(results) < 2 {
		out.Err = fmt.Errorf("experiment: change on %s (switch %d) triggered no discovery",
			cfg.Topology, target)
		return out
	}
	// Partial assimilation may produce several small runs (one per
	// coalesced report batch); aggregate them into one measurement.
	out.Result = results[1]
	for _, r := range results[2:] {
		out.Result.End = r.End
		out.Result.Duration += r.Duration
		out.Result.PacketsSent += r.PacketsSent
		out.Result.BytesSent += r.BytesSent
		out.Result.PacketsReceived += r.PacketsReceived
		out.Result.BytesReceived += r.BytesReceived
		out.Result.Processed += r.Processed
		out.Result.FMBusy += r.FMBusy
		out.Result.TimedOut += r.TimedOut
		out.Result.Retries += r.Retries
		out.Result.GaveUp += r.GaveUp
		out.Result.Stale += r.Stale
		out.Result.Devices = r.Devices
		out.Result.Switches = r.Switches
		out.Result.Links = r.Links
	}
	out.ActiveNodes = f.AliveReachableFrom(ep.ID)
	return out
}

// RunConfigWithRetry reruns with shifted seeds when a run fails for a
// seed-specific reason (e.g. every PI-5 reporter was stranded by the
// change), keeping sweep tables dense.
func RunConfigWithRetry(cfg Config, retries int) Outcome {
	out := RunConfig(cfg)
	for i := 0; i < retries && out.Err != nil; i++ {
		cfg.Seed += 7919
		out = RunConfig(cfg)
	}
	return out
}

// RunConfigAll executes the configurations across a worker pool,
// preserving order. workers <= 0 selects GOMAXPROCS.
func RunConfigAll(cfgs []Config, workers int) []Outcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]Outcome, len(cfgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = RunConfigWithRetry(cfg, 2)
		}(i, cfg)
	}
	wg.Wait()
	return out
}
