package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asi"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rib"
	"repro/internal/sim"
	"repro/internal/topo"
)

const (
	// churnTopology is the daemon's default fabric: 208 nodes, 384 links.
	churnTopology = "8-port 3-tree"
	// churnSubscribers is the number of in-process "/" subscribers; the
	// first one replays and verifies, the others only drain.
	churnSubscribers = 64
	// assimWindow is the coalescing window of churn-assim, the
	// configuration the daemon's assimilation smoke runs.
	assimWindow = 200 * sim.Microsecond
	// churnSetups is how many times a run builds the whole stack; setup_s
	// is the median, and the last stack is the one measured.
	churnSetups = 15
	// deliverTimeout bounds the wait for every subscriber to reach a
	// generation; a subscriber still behind after it fails the operation.
	deliverTimeout = 10 * time.Second
	// passSeconds is the nominal length of a run that flaps every
	// churnable switch once (79 pairs, about 36 s of changes on the 2-core
	// reference host).
	passSeconds = 40
)

// flapList draws the switch each remove/restore pair toggles, among the
// switches other than the one holding the FM's uplink. A run of the
// given nominal length makes pairs in proportion to passSeconds. The
// sample is stratified by hop distance from the uplink switch, which is
// what the cost of a change depends on most: switches are ordered by
// distance, shuffled by the seed within each distance, and taken at
// evenly spaced positions, so every seed flaps the same number of
// switches at each distance. The seed changes which switches those are
// and the order of the pairs, not the mix. The list is a pure function
// of the topology, seed and length.
func flapList(tp *topo.Topology, seed uint64, seconds int) []topo.NodeID {
	host, _, _ := tp.Peer(tp.Endpoints()[0], 0)
	hops := switchHops(tp, host)
	var switches []topo.NodeID
	for _, n := range tp.Nodes {
		if n.Type == asi.DeviceSwitch && n.ID != host {
			switches = append(switches, n.ID)
		}
	}
	rng := sim.NewRNG(seed*2654435761 + 7)
	for i, p := range rng.Perm(len(switches)) {
		switches[i], switches[p] = switches[p], switches[i]
	}
	sort.SliceStable(switches, func(i, j int) bool { return hops[switches[i]] < hops[switches[j]] })
	pairs := max(2, len(switches)*seconds/passSeconds)
	out := make([]topo.NodeID, pairs)
	for i, p := range rng.Perm(pairs) {
		out[p] = switches[i*len(switches)/pairs]
	}
	return out
}

// switchHops returns every switch's hop distance from the given switch
// over switch-to-switch links.
func switchHops(tp *topo.Topology, from topo.NodeID) map[topo.NodeID]int {
	isSwitch := map[topo.NodeID]bool{}
	for _, n := range tp.Nodes {
		isSwitch[n.ID] = n.Type == asi.DeviceSwitch
	}
	adj := map[topo.NodeID][]topo.NodeID{}
	for _, l := range tp.Links {
		if isSwitch[l.A] && isSwitch[l.B] {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
	}
	hops := map[topo.NodeID]int{from: 0}
	for queue := []topo.NodeID{from}; len(queue) > 0; queue = queue[1:] {
		for _, next := range adj[queue[0]] {
			if _, seen := hops[next]; !seen {
				hops[next] = hops[queue[0]] + 1
				queue = append(queue, next)
			}
		}
	}
	return hops
}

// subscriber is one in-process RIB reader. at is written before gen, so
// a reader that loads generation g from gen then loads the time g
// arrived from at.
type subscriber struct {
	sub *rib.Subscription
	gen atomic.Uint64
	at  atomic.Int64 // nanoseconds since churnStack.base
}

// verifier replays one subscriber's stream and checks it. It never stops
// on a bad batch: errors are collected and reported by the next check,
// which fails the operation they belong to, and replay continues.
type verifier struct {
	rep     *rib.Replayer
	errs    []string
	leaves  uint64 // updates carried by delta batches
	replay  time.Duration
	batches int
}

func newVerifier() *verifier { return &verifier{rep: rib.NewReplayer()} }

// apply folds one batch. A delta must carry the generation right after
// the last one applied: a gap means a batch went missing.
func (v *verifier) apply(b rib.Batch) {
	if b.Type == rib.DeltaBatch && v.batches > 0 && b.Gen != v.rep.Gen()+1 {
		v.errs = append(v.errs, fmt.Sprintf("delta for generation %d follows generation %d", b.Gen, v.rep.Gen()))
	}
	start := time.Now()
	err := v.rep.Apply(b)
	v.replay += time.Since(start)
	v.batches++
	if err != nil {
		v.errs = append(v.errs, err.Error())
	}
	if b.Type == rib.DeltaBatch {
		v.leaves += uint64(len(b.Updates))
	}
}

// check compares the replayed topology with the FM database's
// fingerprint and returns every error seen since the previous check.
func (v *verifier) check(want uint64) []string {
	errs := v.errs
	v.errs = nil
	got, err := v.rep.Fingerprint()
	switch {
	case err != nil:
		errs = append(errs, err.Error())
	case got != want:
		errs = append(errs, fmt.Sprintf("replayed fingerprint %#x at generation %d, FM database %#x", got, v.rep.Gen(), want))
	}
	return errs
}

// churnStack is one fabric, manager and RIB with its subscribers.
type churnStack struct {
	tp   *topo.Topology
	e    *sim.Engine
	f    *fabric.Fabric
	m    *core.Manager
	r    *rib.RIB
	subs []*subscriber
	ver  *verifier
	wg   sync.WaitGroup
	// notify wakes waitAll after any subscriber advanced (capacity 1: one
	// token covers any number of advances).
	notify chan struct{}
	base   time.Time

	tr      *tracer
	op      int // operation the current sim.run belongs to
	runSpan int // span of the current sim.run

	// Running totals, updated in OnDiscoveryComplete.
	runs, pi4, coalesced, installs, useful uint64
	lastInstall                            time.Duration // since base
}

// onComplete is the manager's OnDiscoveryComplete hook: it installs the
// database into the RIB, as the daemon does.
func (h *churnStack) onComplete(res core.Result) {
	h.runs++
	h.pi4 += res.PacketsSent
	h.coalesced += uint64(res.Coalesced)
	var diff core.Diff
	h.tr.do("rib.install", h.op, h.runSpan, func(int) { _, diff = h.r.Install(h.m.DB()) })
	h.installs++
	if !diff.Empty() {
		h.useful++
	}
	h.lastInstall = time.Since(h.base)
}

// run drains the simulation to quiescence inside a sim.run span.
func (h *churnStack) run(parent int) {
	h.tr.do("sim.run", h.op, parent, func(id int) {
		h.runSpan = id
		h.e.Run()
	})
}

// drain is one subscriber's goroutine; v is non-nil for the verifier.
func (h *churnStack) drain(s *subscriber, v *verifier) {
	defer h.wg.Done()
	for b := range s.sub.Updates() {
		if v != nil {
			v.apply(b)
		}
		s.at.Store(int64(time.Since(h.base)))
		s.gen.Store(b.Gen)
		select {
		case h.notify <- struct{}{}:
		default:
		}
	}
}

// waitAll waits until every subscriber holds generation gen, or the
// timeout passes. It returns when the last subscriber got there and how
// many never did.
func (h *churnStack) waitAll(gen uint64, timeout time.Duration) (time.Duration, int) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		missing := 0
		var last int64
		for _, s := range h.subs {
			if s.gen.Load() < gen {
				missing++
			} else if at := s.at.Load(); at > last {
				last = at
			}
		}
		if missing == 0 {
			return time.Duration(last), 0
		}
		select {
		case <-h.notify:
		case <-timer.C:
			return time.Since(h.base), missing
		}
	}
}

// close stops every subscriber and waits for their goroutines.
func (h *churnStack) close() {
	for _, s := range h.subs {
		s.sub.Close()
	}
	h.wg.Wait()
}

// buildChurn builds the stack and brings it to its steady state:
// bootstrap discovery, event-route distribution, the first install, and
// every subscriber holding generation 1.
func buildChurn(cfg config, assim bool, o *outcome, tr *tracer) (*churnStack, error) {
	h := &churnStack{notify: make(chan struct{}, 1), base: time.Now(), tr: tr, op: -1}
	var err error
	t0 := time.Now()
	tr.do("setup.topo", -1, -1, func(int) { h.tp, err = topo.ByName(churnTopology) })
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.do("setup.fabric", -1, -1, func(int) {
		h.e = sim.NewEngine()
		h.f, err = fabric.New(h.e, h.tp, fabric.Config{}, sim.NewRNG(cfg.seed*2654435761+1))
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	opt := core.Options{Algorithm: core.Parallel}
	if assim {
		opt = core.Options{Algorithm: core.Partial, AssimWindow: assimWindow}
	}
	h.m = core.NewManager(h.f, h.f.Device(h.tp.Endpoints()[0]), opt)
	h.r = rib.New(rib.Config{})
	h.m.OnDiscoveryComplete = h.onComplete

	var distErr error
	tr.do("setup.bootstrap", -1, -1, func(id int) {
		h.m.StartDiscovery()
		h.run(id)
		if h.installs == 0 {
			distErr = fmt.Errorf("bootstrap discovery on %q completed no run", churnTopology)
			return
		}
		h.m.DistributeEventRoutes(func(r core.DistResult) {
			if r.Failures > 0 {
				distErr = fmt.Errorf("%d event-route distribution failures", r.Failures)
			}
		})
		h.run(id)
	})
	if distErr != nil {
		return nil, distErr
	}
	gen := h.r.Current().Gen
	var missing int
	tr.do("setup.subscribe", -1, -1, func(int) {
		tr.label("subscriber", func() {
			for i := 0; i < churnSubscribers; i++ {
				s := &subscriber{sub: h.r.Subscribe("/")}
				var v *verifier
				if i == 0 {
					h.ver = newVerifier()
					v = h.ver
				}
				h.subs = append(h.subs, s)
				h.wg.Add(1)
				go h.drain(s, v)
			}
		})
		_, missing = h.waitAll(gen, deliverTimeout)
	})
	if missing > 0 {
		h.close()
		return nil, fmt.Errorf("%d subscribers never received the initial sync", missing)
	}
	t3 := time.Now()
	o.topoBuild = append(o.topoBuild, t1.Sub(t0))
	o.fabricNew = append(o.fabricNew, t2.Sub(t1))
	o.setup = append(o.setup, t3.Sub(t0))
	return h, nil
}

// runChurn is the churn-full (assim false) or churn-assim workload: a
// closed loop of remove/restore pairs, each change measured from the
// toggle until every subscriber holds the generation of that change's
// last install, or until the simulation drains when it installed nothing.
func runChurn(cfg config, tr *tracer, assim bool) (*outcome, error) {
	o := &outcome{correct: true}
	var h *churnStack
	for i := 0; i < churnSetups; i++ {
		if h != nil {
			h.close()
			h = nil
		}
		runtime.GC()
		var err error
		if h, err = buildChurn(cfg, assim, o, tr); err != nil {
			return nil, err
		}
	}
	defer h.close()
	flaps := flapList(h.tp, cfg.seed, cfg.seconds)

	runtime.GC()
	before := readRuntime()
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	runs0, pi40, co0, inst0, useful0 := h.runs, h.pi4, h.coalesced, h.installs, h.useful
	events0, leaves0 := h.e.Processed, h.ver.leaves
	for i, node := range flaps {
		for _, kind := range []string{"remove", "restore"} {
			if err := change(h, o, len(o.ops), kind, node); err != nil {
				return nil, fmt.Errorf("pair %d (%s switch %d): %w", i, kind, node, err)
			}
		}
	}
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	o.addRuntime(before)
	o.heapLive = heapLiveNow()
	runtime.KeepAlive(h)

	o.runs, o.pi4, o.coalesced = h.runs-runs0, h.pi4-pi40, h.coalesced-co0
	o.installs, o.usefulInstalls = h.installs-inst0, h.useful-useful0
	o.events, o.leavesChanged = h.e.Processed-events0, h.ver.leaves-leaves0
	o.fingerprint = h.m.DB().Fingerprint()
	o.replay, o.replayBatches = h.ver.replay, h.ver.batches
	o.resyncs = h.r.Stats().Resyncs

	// End state: one full rediscovery must bring the served state back to
	// ground truth whatever the operations left behind.
	h.op = len(o.ops)
	h.m.StartDiscovery()
	h.run(-1)
	res, _ := h.m.LastResult()
	_, missing := h.waitAll(h.r.Current().Gen, deliverTimeout)
	errs := h.ver.check(h.m.DB().Fingerprint())
	if err := chaos.CheckConverged(h.f, h.m, res); err != nil {
		errs = append(errs, err.Error())
	}
	if missing > 0 {
		errs = append(errs, fmt.Sprintf("%d subscribers behind", missing))
	}
	if len(errs) > 0 {
		o.correct = false
		o.problems = append(o.problems, fmt.Sprintf("end state after a full rediscovery: %v", errs))
	}
	return o, nil
}

// change applies one toggle, measures it and verifies the result.
func change(h *churnStack, o *outcome, op int, kind string, node topo.NodeID) error {
	tr := h.tr
	h.op = op
	gen0 := h.r.Current().Gen
	sim0 := h.e.Now()
	cpu := processCPU()
	start := time.Since(h.base)
	opSpan := tr.begin(kind, op, -1)
	var err error
	if kind == "remove" {
		err = h.f.SetDeviceDown(node, false)
	} else {
		err = h.f.SetDeviceUp(node, false)
	}
	if err != nil {
		return err
	}
	h.run(opSpan)
	end := time.Since(h.base)
	gen := h.r.Current().Gen
	missing := 0
	if gen != gen0 {
		tr.do("deliver.wait", op, opSpan, func(int) { end, missing = h.waitAll(gen, deliverTimeout) })
		o.deliverWait += end - h.lastInstall
	}
	tr.end(opSpan)
	cpu = processCPU() - cpu
	o.attempted++
	o.ops = append(o.ops, opSample{kind: kind, wall: end - start, cpu: cpu, sim: h.e.Now().Sub(sim0)})

	tr.do("verify", op, -1, func(int) {
		var errs []string
		if missing > 0 {
			errs = append(errs, fmt.Sprintf("%d of %d subscribers never reached generation %d", missing, len(h.subs), gen))
		}
		if res, ok := h.m.LastResult(); !ok {
			errs = append(errs, "no discovery run has completed")
		} else if err := chaos.CheckConverged(h.f, h.m, res); err != nil {
			errs = append(errs, err.Error())
		}
		if missing == 0 {
			errs = append(errs, h.ver.check(h.m.DB().Fingerprint())...)
		}
		if len(errs) > 0 {
			o.fail("operation %d (%s switch %d, generation %d): %v", op, kind, node, gen, errs)
		}
	})
	return nil
}
