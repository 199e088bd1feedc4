package chaos

import (
	"fmt"
	"time"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Options configures how a scenario is executed (none of it is part of
// the scenario itself: the same scenario replays identically under any
// observation options).
type Options struct {
	// Horizon bounds each phase's simulated time. The event queue of a
	// healthy run always drains long before it; hitting the horizon with
	// events still pending is the oracle's "engine hung" signal. Zero
	// selects DefaultHorizon.
	Horizon sim.Duration
	// Telemetry and Spans attach the respective observers; both add
	// oracle coverage (conservation laws, span validation) at some
	// execution cost.
	Telemetry bool
	Spans     bool
	// NoAudit skips the forced post-quiescence rediscovery.
	NoAudit bool
	// SkipPI5 makes the FM's packet handler silently swallow the first N
	// PI-5 event reports. It exists to break the system on purpose: the
	// oracle must notice (delivered-but-unassimilated reports), which is
	// how the harness tests itself.
	SkipPI5 int
	// OnDiscovery, when non-nil, observes every completed discovery run
	// with the manager's live database — the hook a RIB installer uses
	// to turn scripted churn into a continuous stream of generations
	// instead of one run per change. Pure observation: the callback
	// must not mutate the database, and it runs outside simulated time,
	// so scenario fingerprints are unaffected.
	OnDiscovery func(db *core.DB, r core.Result)
	// Coalesce enables the manager's continuous-assimilation front-end
	// (core.Options.AssimWindow): PI-5 reports debounce in a window of
	// CoalesceWindowUS microseconds (default 200) bounded by
	// CoalesceBatchMax distinct ports, and flush as one batched partial
	// run. Only the Partial algorithm assimilates events localizedly, so
	// the options are inert for the other kinds.
	Coalesce         bool
	CoalesceWindowUS float64
	CoalesceBatchMax int
	// Continuous > 0 appends a steady-state churn phase after the
	// scripted events settle: that many rounds, each a Churner storm of
	// ContinuousOps toggles (default 4) followed by full restoration,
	// run to quiescence with the database checked against ground truth
	// at every quiescent point.
	Continuous    int
	ContinuousOps int
}

// DefaultHorizon is far beyond any legitimate phase: the worst Table 1
// fabric under maximum loss and retries quiesces in well under a second
// of simulated time.
const DefaultHorizon = 30 * sim.Second

// spanCap bounds the span log like the experiment layer does.
const spanCap = 1 << 20

// Report is everything the oracle (and a human debugging a failure)
// needs to know about one executed scenario.
type Report struct {
	Scenario Scenario

	// Results lists every completed discovery run in completion order:
	// the initial discovery, any churn-triggered assimilations, and the
	// audit rediscovery last (when it ran).
	Results []core.Result

	// InitialOK records that the initial discovery completed; InitialErr
	// its ground-truth comparison (only performed when trustworthy).
	InitialOK  bool
	InitialErr error
	// DistFailures counts failed event-route writes during distribution.
	DistFailures int
	// EventErrs records scripted events the fabric rejected.
	EventErrs []string

	// Hung names the phase that exhausted the horizon ("" = none);
	// StillDiscovering reports a manager mid-run after the script
	// quiesced with a drained event queue.
	Hung             string
	StillDiscovering bool

	// T0 is when the transient period (initial discovery + event-route
	// distribution) ended and the event script's clock started;
	// LastChange is when the script's final perturbation was fully
	// applied (for a flap, when the link came back up).
	T0, LastChange sim.Time
	// PI5AfterLast counts PI-5 event reports the fabric delivered at or
	// after LastChange; ChurnRun indexes the last completed run covering
	// LastChange — started at or after it, or a partial-assimilation run
	// still open at it (-1 = none).
	PI5AfterLast uint64
	ChurnRun     int

	// WantDevices/WantLinks is the alive-fabric ground truth after the
	// script quiesced; PostChurnDevices/Links the FM database then, and
	// PostChurnFP its topology fingerprint — the quiescent-state value
	// the coalesced/per-event equivalence suite compares across
	// assimilation modes.
	WantDevices, WantLinks           int
	PostChurnDevices, PostChurnLinks int
	PostChurnFP                      uint64

	// ContinuousRounds counts completed steady-state churn rounds
	// (Options.Continuous); ContinuousChecked the subset whose quiescent
	// point was convergence-checked against ground truth (only loss-free
	// scenarios are checkable — injected loss leaves the FM legitimately
	// stale until the audit); ContinuousErrs records every invariant
	// violated at a quiescent point.
	ContinuousRounds  int
	ContinuousChecked int
	ContinuousErrs    []string

	// StructErrs records every core.DB.Check violation found at a
	// quiescent point: after the transient period, after the event
	// script, after each continuous round and after the audit.
	StructErrs []string

	// Audit is the forced post-quiescence rediscovery.
	AuditRequested bool
	AuditRan       bool
	Audit          core.Result
	AuditErr       error

	// DBFingerprint hashes the final database topology; Fingerprint
	// hashes the whole run's observable metrics. Two executions of the
	// same scenario must produce identical fingerprints.
	DBFingerprint uint64
	Fingerprint   uint64

	// Processed is the total simulation event count; Counters the final
	// fabric accounting.
	Processed uint64
	Counters  fabric.Counters
	// Telemetry and Spans are present only when requested in Options.
	Telemetry *telemetry.Snapshot
	Spans     *span.Log
}

// pi5Filter wraps the manager's packet handler and swallows the first N
// PI-5 reports (Options.SkipPI5). The fabric has already counted the
// delivery by the time the handler runs, which is exactly the asymmetry
// the oracle exploits to catch the lost assimilation.
type pi5Filter struct {
	inner fabric.Handler
	skip  int
}

func (p *pi5Filter) HandlePacket(port int, pkt *asi.Packet) {
	if p.skip > 0 && pkt.Header.PI == asi.PI5EventReporting {
		p.skip--
		return
	}
	p.inner.HandlePacket(port, pkt)
}

// Execute runs one scenario to completion and reports everything the
// oracle checks. The error return covers scenario construction problems
// only (invalid scenario, unbuildable topology); anomalies of the run
// itself land in the Report for the Oracle to judge.
func Execute(sc Scenario, opt Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	kind, err := sc.Kind()
	if err != nil {
		return nil, err
	}
	tp, err := sc.Topology.Build()
	if err != nil {
		return nil, err
	}
	horizon := opt.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}

	rep := &Report{Scenario: sc, ChurnRun: -1}
	var (
		reg       *telemetry.Registry
		sp        *span.Tracer
		wallStart time.Time
	)
	if opt.Telemetry {
		reg = telemetry.New()
		wallStart = time.Now()
	}
	if opt.Spans {
		sp = span.New(spanCap)
	}
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(sc.Seed*2654435761+1))
	if err != nil {
		return nil, err
	}
	if reg != nil {
		f.EnableTelemetry(reg)
	}
	if sp != nil {
		f.SetSpanTracer(sp)
	}
	if err := f.SetFaultPlan(sc.FaultPlan()); err != nil {
		return nil, err
	}
	ep := f.Device(tp.Endpoints()[0])
	mopt := core.Options{
		Algorithm:    kind,
		MaxRetries:   sc.MaxRetries,
		RetryBackoff: sim.Micros(sc.BackoffUS),
		Telemetry:    reg,
		Spans:        sp,
	}
	if opt.Coalesce {
		w := opt.CoalesceWindowUS
		if w <= 0 {
			w = 200
		}
		mopt.AssimWindow = sim.Micros(w)
		mopt.AssimBatchMax = opt.CoalesceBatchMax
	}
	m := core.NewManager(f, ep, mopt)
	if opt.SkipPI5 > 0 {
		ep.SetHandler(&pi5Filter{inner: m, skip: opt.SkipPI5})
	}
	m.OnDiscoveryComplete = func(r core.Result) {
		rep.Results = append(rep.Results, r)
		if opt.OnDiscovery != nil {
			opt.OnDiscovery(m.DB(), r)
		}
	}

	runPhase := func(name string) bool {
		e.RunUntil(e.Now().Add(horizon))
		if e.Pending() > 0 {
			rep.Hung = name
			return false
		}
		return true
	}
	finish := func() *Report {
		rep.Processed = e.Processed
		rep.Counters = f.Counters()
		rep.DBFingerprint = m.DB().Fingerprint()
		if sp != nil {
			l := sp.Log()
			rep.Spans = &l
		}
		if reg != nil {
			f.FinishTelemetry(reg)
			e.RecordTelemetry(reg, time.Since(wallStart))
			s := reg.Snapshot()
			rep.Telemetry = &s
		}
		rep.Fingerprint = rep.fingerprint()
		return rep
	}

	// checkDB runs the database's structural invariants at a quiescent
	// point; an FM still mid-run is not quiescent and is not checked.
	checkDB := func(point string) {
		if m.Discovering() {
			return
		}
		if err := m.DB().Check(); err != nil {
			rep.StructErrs = append(rep.StructErrs, fmt.Sprintf("%s: %v", point, err))
		}
	}

	// Transient period: initial discovery, then event-route distribution.
	m.StartDiscovery()
	if !runPhase("initial discovery") {
		return finish(), nil
	}
	if len(rep.Results) >= 1 {
		rep.InitialOK = true
		if rep.Trustworthy(rep.Results[0]) {
			rep.InitialErr = CheckConverged(f, m, rep.Results[0])
		}
	}
	m.DistributeEventRoutes(func(d core.DistResult) { rep.DistFailures = d.Failures })
	if !runPhase("event-route distribution") {
		return finish(), nil
	}
	checkDB("after the transient period")
	rep.T0 = e.Now()

	// Event script: schedule every perturbation relative to T0 and note
	// when the last one is fully applied.
	rep.LastChange = rep.T0
	for i, ev := range sc.Events {
		i, ev := i, ev
		at := rep.T0.Add(sim.Micros(ev.AtUS))
		switch ev.Op {
		case OpDown, OpUp:
			if at > rep.LastChange {
				rep.LastChange = at
			}
			e.At(at, func(*sim.Engine) {
				var err error
				if ev.Op == OpDown {
					err = f.SetDeviceDown(topo.NodeID(ev.Node), false)
				} else {
					err = f.SetDeviceUp(topo.NodeID(ev.Node), false)
				}
				if err != nil {
					rep.EventErrs = append(rep.EventErrs,
						fmt.Sprintf("event %d (%s node %d at %v): %v", i, ev.Op, ev.Node, at, err))
				}
			})
		case OpFlap:
			up := at.Add(sim.Micros(ev.DurUS))
			if up > rep.LastChange {
				rep.LastChange = up
			}
			if err := f.FlapLink(ev.Link, at, sim.Micros(ev.DurUS)); err != nil {
				rep.EventErrs = append(rep.EventErrs,
					fmt.Sprintf("event %d (flap link %d at %v): %v", i, ev.Link, at, err))
			}
		}
	}
	pi5Delivered := func() uint64 { return f.Counters().Delivered[asi.PI5EventReporting] }
	var pi5Before uint64
	if rep.LastChange == rep.T0 {
		pi5Before = pi5Delivered()
	} else {
		// PI-5 emission trails any change by the detect delay, so a
		// snapshot at LastChange itself cleanly splits before/after.
		e.At(rep.LastChange, func(*sim.Engine) { pi5Before = pi5Delivered() })
	}
	if !runPhase("event script") {
		return finish(), nil
	}
	rep.PI5AfterLast = pi5Delivered() - pi5Before
	rep.StillDiscovering = m.Discovering()
	checkDB("after the event script")
	for i, r := range rep.Results {
		// A run started after the last change covers it; so does a
		// partial-assimilation run already open at the change, since the
		// partial path folds mid-flight reports straight into the run
		// instead of starting a new one.
		if r.Start >= rep.LastChange ||
			(r.Algorithm == core.Partial && r.Start.Add(r.Duration) >= rep.LastChange) {
			rep.ChurnRun = i
		}
	}
	rep.WantDevices, rep.WantLinks = GroundTruth(f, ep.ID)
	rep.PostChurnDevices, rep.PostChurnLinks = m.DB().NumNodes(), m.DB().NumLinks()
	rep.PostChurnFP = m.DB().Fingerprint()

	// Continuous steady-state churn: Churner rounds against the settled
	// fabric, each run to quiescence and checked there — the referee for
	// the coalescing front-end under sustained PI-5 load.
	if opt.Continuous > 0 && !rep.StillDiscovering {
		ch, cerr := NewChurner(tp, sc.Seed)
		if cerr != nil {
			return nil, cerr
		}
		ops := opt.ContinuousOps
		if ops <= 0 {
			ops = 4
		}
		contErr := func(round int, format string, args ...any) {
			rep.ContinuousErrs = append(rep.ContinuousErrs,
				fmt.Sprintf("round %d: %s", round, fmt.Sprintf(format, args...)))
		}
		applyRound := func(round int, evs []Event) bool {
			base := e.Now()
			for _, ev := range evs {
				ev := ev
				e.At(base.Add(sim.Micros(ev.AtUS)), func(*sim.Engine) {
					var err error
					if ev.Op == OpDown {
						err = f.SetDeviceDown(topo.NodeID(ev.Node), false)
					} else {
						err = f.SetDeviceUp(topo.NodeID(ev.Node), false)
					}
					if err != nil {
						contErr(round, "%s node %d: %v", ev.Op, ev.Node, err)
					}
				})
			}
			return runPhase(fmt.Sprintf("continuous round %d", round))
		}
		totalDrops := func() uint64 {
			var sum uint64
			for _, d := range f.Counters().Drops {
				sum += d
			}
			return sum
		}
		// Convergence at a quiescent point is only guaranteed on a
		// loss-free fabric, and only when the restoration segment itself
		// dropped nothing: a restoration PI-5 whose event route crossed a
		// still-down switch is silently lost, and partial assimilation
		// stops exploring at known devices — the resulting hole is
		// legitimate staleness the next audit repairs. Storm-segment drops
		// are unavoidable (a downed switch's own endpoint can never report
		// its death), so drops are accounted per segment.
		lossFree := sc.Loss == 0 && sc.DropFirst == 0 && sc.FaultPlan().Empty()
		for round := 0; round < opt.Continuous; round++ {
			delivered := pi5Delivered()
			nres := len(rep.Results)
			// One round = a churn storm drained to quiescence, then full
			// restoration drained again, so the quiescent ground truth is
			// the whole fabric.
			if !applyRound(round, ch.Round(ops)) {
				return finish(), nil
			}
			dropsBefore := totalDrops()
			if !applyRound(round, ch.Quiesce()) {
				return finish(), nil
			}
			cleanRestore := totalDrops() == dropsBefore
			rep.ContinuousRounds++
			checkDB(fmt.Sprintf("after continuous round %d", round))
			// Liveness invariants hold unconditionally: the drained queue
			// must leave the manager idle with nothing held back in the
			// debounce window.
			if m.Discovering() {
				contErr(round, "manager still discovering at quiescence")
				continue
			}
			if n := m.AssimPending(); n > 0 {
				contErr(round, "%d reports left pending in the debounce window", n)
			}
			if !lossFree {
				continue
			}
			if pi5Delivered() > delivered && len(rep.Results) == nres {
				contErr(round, "PI-5 reports delivered but no discovery run completed")
				continue
			}
			// With everything restored the database may at worst lag
			// behind the fabric — it must never claim devices or links
			// the fabric does not have.
			wd, wl := GroundTruth(f, ep.ID)
			if m.DB().NumNodes() > wd || m.DB().NumLinks() > wl {
				contErr(round, "database has %d devices / %d links at quiescence, fabric only %d / %d",
					m.DB().NumNodes(), m.DB().NumLinks(), wd, wl)
			}
			if !cleanRestore {
				continue
			}
			rep.ContinuousChecked++
			if m.DB().NumNodes() != wd || m.DB().NumLinks() != wl {
				contErr(round, "database has %d devices / %d links at quiescence, ground truth %d / %d",
					m.DB().NumNodes(), m.DB().NumLinks(), wd, wl)
			}
		}
		rep.StillDiscovering = m.Discovering()
	}

	// Audit: force a full rediscovery of the settled fabric. Whatever the
	// churn did to the database, a trustworthy audit must reconstruct the
	// ground truth exactly.
	if !opt.NoAudit && !rep.StillDiscovering {
		rep.AuditRequested = true
		before := len(rep.Results)
		m.StartDiscovery()
		if !runPhase("audit rediscovery") {
			return finish(), nil
		}
		checkDB("after the audit")
		if len(rep.Results) > before {
			rep.AuditRan = true
			rep.Audit = rep.Results[len(rep.Results)-1]
			if rep.Trustworthy(rep.Audit) {
				rep.AuditErr = CheckConverged(f, m, rep.Audit)
			}
		}
	}
	return finish(), nil
}

// fingerprint folds every deterministic observable of the run into one
// FNV-1a value: the engine's event count, the fabric's accounting, each
// discovery result's measurements, and the final database fingerprint.
// Wall-clock-derived telemetry (events/sec) is deliberately excluded.
func (rep *Report) fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(rep.Processed)
	mix(rep.Counters.TxPackets)
	mix(rep.Counters.TxBytes)
	for pi := asi.PI(0); pi < 16; pi++ {
		mix(rep.Counters.Delivered[pi])
	}
	for _, d := range rep.Counters.Drops {
		mix(d)
	}
	mix(rep.Counters.FaultDelays)
	mix(rep.Counters.LinkFlaps)
	mix(uint64(len(rep.Results)))
	for _, r := range rep.Results {
		mix(uint64(r.Start))
		mix(uint64(r.End))
		mix(uint64(r.PacketsSent))
		mix(uint64(r.BytesSent))
		mix(uint64(r.PacketsReceived))
		mix(uint64(r.BytesReceived))
		mix(uint64(r.TimedOut))
		mix(uint64(r.Retries))
		mix(uint64(r.GaveUp))
		mix(uint64(r.Stale))
		mix(uint64(r.Coalesced))
		mix(uint64(r.Devices))
		mix(uint64(r.Switches))
		mix(uint64(r.Links))
	}
	mix(uint64(rep.T0))
	mix(uint64(rep.LastChange))
	mix(rep.PI5AfterLast)
	mix(uint64(rep.WantDevices))
	mix(uint64(rep.WantLinks))
	mix(uint64(rep.PostChurnDevices))
	mix(uint64(rep.PostChurnLinks))
	mix(rep.PostChurnFP)
	mix(uint64(rep.ContinuousRounds))
	mix(uint64(rep.ContinuousChecked))
	mix(uint64(len(rep.ContinuousErrs)))
	mix(rep.DBFingerprint)
	return h
}

// CrossCheck executes the scenario once per paper algorithm and verifies
// that every run passes the oracle and that all trustworthy audits agree
// on the final topology fingerprint — the serial and parallel algorithms
// must reconstruct the same fabric.
func CrossCheck(sc Scenario, opt Options) error {
	_, err := CrossCheckFingerprint(sc, opt)
	return err
}

// CrossCheckFingerprint is CrossCheck returning a deterministic
// observable too: every mode's full run fingerprint folded together
// (FNV-1a; PaperKinds order, then Partial again with the coalescing
// front-end). Two executions of the same scenario must return the same
// value, which is what the parallel sweep's determinism smoke compares
// across worker counts. Beyond the per-mode oracle, it checks that all
// trustworthy audits agree on the final topology, and that per-event and
// coalesced Partial — when neither was defeated by injected loss — reach
// byte-identical quiescent databases after the scripted churn.
func CrossCheckFingerprint(sc Scenario, opt Options) (uint64, error) {
	type mode struct {
		kind     core.Kind
		coalesce bool
	}
	type agreed struct {
		mode mode
		fp   uint64
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	combined := uint64(offset)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			combined ^= (v >> (8 * i)) & 0xff
			combined *= prime
		}
	}
	modes := make([]mode, 0, len(core.PaperKinds())+1)
	for _, k := range core.PaperKinds() {
		modes = append(modes, mode{kind: k})
	}
	modes = append(modes, mode{kind: core.Partial, coalesce: true})
	name := func(md mode) string {
		if md.coalesce {
			return md.kind.Slug() + "+coalesce"
		}
		return md.kind.Slug()
	}
	var fps []agreed
	var perEvent, coalesced *Report
	for _, md := range modes {
		s := sc
		s.Algorithm = md.kind.Slug()
		o := opt
		o.Coalesce = md.coalesce
		rep, err := Execute(s, o)
		if err != nil {
			return 0, fmt.Errorf("chaos: %s: %w", name(md), err)
		}
		if err := (Oracle{}).Check(rep); err != nil {
			return 0, fmt.Errorf("chaos: %s: %w", name(md), err)
		}
		fold(rep.Fingerprint)
		if rep.AuditRan && rep.Trustworthy(rep.Audit) {
			fps = append(fps, agreed{md, rep.DBFingerprint})
		}
		if md.kind == core.Partial {
			if md.coalesce {
				coalesced = rep
			} else {
				perEvent = rep
			}
		}
	}
	for i := 1; i < len(fps); i++ {
		if fps[i].fp != fps[0].fp {
			return 0, fmt.Errorf("chaos: algorithms disagree on final topology: %s=%#x, %s=%#x",
				name(fps[0].mode), fps[0].fp, name(fps[i].mode), fps[i].fp)
		}
	}
	// The equivalence property: batched-coalesced assimilation must land
	// on the same quiescent database as per-event assimilation, unless
	// injected loss defeated a run in either mode (a gave-up or timed-out
	// run may legitimately truncate a subtree).
	if perEvent != nil && coalesced != nil &&
		allTrustworthy(perEvent) && allTrustworthy(coalesced) &&
		perEvent.PostChurnFP != coalesced.PostChurnFP {
		return 0, fmt.Errorf("chaos: partial assimilation modes disagree post-churn: per-event=%#x, coalesced=%#x",
			perEvent.PostChurnFP, coalesced.PostChurnFP)
	}
	return combined, nil
}

// allTrustworthy reports whether every completed run in the report was
// undefeated by injected loss (see Report.Trustworthy).
func allTrustworthy(rep *Report) bool {
	for _, r := range rep.Results {
		if !rep.Trustworthy(r) {
			return false
		}
	}
	return true
}
