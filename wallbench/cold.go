package main

import (
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// coldTopology is the catalogue's large dragonfly: 2048 nodes, 10720
// links. Discovery on it touches sim, fabric and core only.
const coldTopology = "dragonfly 16x64"

// coldSamples is the fixed number of discoveries a run of the given
// nominal length makes: one discovery takes about 0.75 s of host time on
// the 2-core reference host.
func coldSamples(seconds int) int {
	return max(3, seconds*4/3)
}

// coldStack is one freshly built fabric with its manager.
type coldStack struct {
	tp  *topo.Topology
	e   *sim.Engine
	f   *fabric.Fabric
	m   *core.Manager
	res core.Result
	ran int
}

// buildCold builds the topology, fabric and manager, timing each stage.
func buildCold(seed uint64, o *outcome, tr *tracer, op int) (*coldStack, error) {
	s := &coldStack{}
	var err error
	t0 := time.Now()
	tr.do("setup.topo", op, -1, func(int) { s.tp, err = topo.ByName(coldTopology) })
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.do("setup.fabric", op, -1, func(int) {
		s.e = sim.NewEngine()
		s.f, err = fabric.New(s.e, s.tp, fabric.Config{}, sim.NewRNG(seed*2654435761+1))
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	tr.do("setup.manager", op, -1, func(int) {
		s.m = core.NewManager(s.f, s.f.Device(s.tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	})
	t3 := time.Now()
	s.m.OnDiscoveryComplete = func(r core.Result) { s.res = r; s.ran++ }
	o.topoBuild = append(o.topoBuild, t1.Sub(t0))
	o.fabricNew = append(o.fabricNew, t2.Sub(t1))
	o.setup = append(o.setup, t3.Sub(t0))
	return s, nil
}

// runCold is the cold-discovery workload: Parallel discovery from the
// first endpoint of a new dragonfly 16x64 fabric per sample, after a GC,
// so no sample inherits a previous sample's garbage. Every sample must
// discover the whole fabric with the first sample's fingerprint; the
// first and last are also audited against ground truth, outside the
// timed window. The seed only seeds the fabric's RNG, which discovery
// does not draw from: every sample of every seed does identical work.
func runCold(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{correct: true}
	n := coldSamples(cfg.seconds)
	var last *coldStack
	var firstFP uint64
	for i := 0; i < n; i++ {
		last = nil // let the previous sample's fabric die before the GC
		runtime.GC()
		s, err := buildCold(cfg.seed, o, tr, i)
		if err != nil {
			return nil, err
		}
		last = s
		runtime.GC()
		if i == 0 {
			if err := tr.startProfile(); err != nil {
				return nil, err
			}
		}
		before := readRuntime()
		events := s.e.Processed
		cpu := processCPU()
		start := time.Now()
		tr.do("discovery", i, -1, func(id int) {
			s.m.StartDiscovery()
			tr.do("sim.run", i, id, func(int) { s.e.Run() })
		})
		wall := time.Since(start)
		cpu = processCPU() - cpu
		o.addRuntime(before)
		o.attempted++
		o.ops = append(o.ops, opSample{kind: "discovery", wall: wall, cpu: cpu, sim: s.res.Duration})
		o.events += s.e.Processed - events
		o.pi4 += s.res.PacketsSent
		o.runs += uint64(s.ran)
		o.coalesced += uint64(s.res.Coalesced)

		tr.do("verify", i, -1, func(int) {
			fp := s.m.DB().Fingerprint()
			if i == 0 {
				firstFP = fp
			}
			o.fingerprint = fp
			switch {
			case s.ran != 1:
				o.fail("sample %d: %d discovery runs completed, want 1", i, s.ran)
			case s.res.Devices != len(s.tp.Nodes) || s.res.Links != len(s.tp.Links):
				o.fail("sample %d: discovered %d devices / %d links of %d / %d",
					i, s.res.Devices, s.res.Links, len(s.tp.Nodes), len(s.tp.Links))
			case fp != firstFP:
				o.fail("sample %d: fingerprint %#x, first sample %#x", i, fp, firstFP)
			case i == 0 || i == n-1:
				if err := chaos.CheckConverged(s.f, s.m, s.res); err != nil {
					o.fail("sample %d: %v", i, err)
				}
			}
		})
	}
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	o.heapLive = heapLiveNow()
	runtime.KeepAlive(last)
	return o, nil
}
