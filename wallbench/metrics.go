package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
)

// opSample is one timed operation: a discovery, or one switch removal or
// restoration measured until every subscriber holds its generation.
type opSample struct {
	kind string
	wall time.Duration
	cpu  time.Duration // process CPU time, every goroutine included
	sim  sim.Duration
}

// processCPU returns the CPU time the process has used so far, user and
// system, over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is everything one pass over a workload measured.
type outcome struct {
	// correct is false when a check that is not tied to one operation
	// failed: on the churn workloads, the end state after a closing full
	// rediscovery not matching ground truth.
	correct           bool
	attempted, failed int
	problems          []string

	// setup holds one duration per set-up; topoBuild and fabricNew the
	// stages of each.
	setup, topoBuild, fabricNew []time.Duration
	ops                         []opSample

	// Behaviour counts summed over the timed operations. They depend only
	// on the inputs, so they repeat exactly across runs and passes.
	events, pi4, runs, coalesced, installs, usefulInstalls, leavesChanged uint64
	// fingerprint is the FM database's fingerprint after the last
	// operation.
	fingerprint uint64

	// Host-time layer totals over the timed operations.
	deliverWait   time.Duration
	replay        time.Duration
	replayBatches int
	resyncs       uint64

	// Runtime figures: heapLive is HeapAlloc after a GC at the end of the
	// timed section, with the workload's state still reachable; the
	// others are deltas over the timed section.
	heapLive   uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // seconds
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runtimeStats samples the allocation, GC-cycle and GC-CPU counters.
type runtimeStats struct {
	alloc uint64
	gcs   uint32
	gcCPU float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gc float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return runtimeStats{alloc: ms.TotalAlloc, gcs: ms.NumGC, gcCPU: gc}
}

// addRuntime adds the runtime deltas from before to now into o.
func (o *outcome) addRuntime(before runtimeStats) {
	now := readRuntime()
	o.allocBytes += now.alloc - before.alloc
	o.gcCycles += now.gcs - before.gcs
	o.gcCPU += now.gcCPU - before.gcCPU
}

// heapLiveNow collects garbage and returns the live heap. Callers keep
// their state reachable across the call (runtime.KeepAlive after it).
func heapLiveNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// metricSpec declares one metric's name and unit.
type metricSpec struct{ name, unit string }

// endToEndSpecs are printed by every workload with --trace 0.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayerSpecs are printed by every workload with --trace 1. A layer a
// workload never reaches reads 0 there.
var perLayerSpecs = []metricSpec{
	{"topo.build_ms", "ms"},
	{"fabric.new_ms", "ms"},
	{"sim.events", "count"},
	{"fabric.pi4_pkts", "count"},
	{"core.runs", "count"},
	{"core.coalesced", "count"},
	{"rib.installs", "count"},
	{"rib.leaves_changed", "count"},
	{"sim.op_ms", "sim-ms"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_ms", "ms"},
	{"fabric.cpu_ms", "ms"},
	{"core.cpu_ms", "ms"},
	{"core.db.cpu_ms", "ms"},
	{"fib.cpu_ms", "ms"},
	{"rib.cpu_ms", "ms"},
	{"other.cpu_ms", "ms"},
	{"rib.install_ms", "ms"},
	{"rib.useful_install_ratio", "ratio"},
	{"rib.deliver_wait_ms", "ms"},
	{"rib.resyncs", "count"},
	{"rib.replay_ms", "ms"},
	{"op.p50_ms", "ms"},
	{"op.remove_p50_ms", "ms"},
	{"op.restore_p50_ms", "ms"},
	{"op.p75_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"op.cpu_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// opWallsMS returns the wall times of the operations of one kind, or of
// every operation when kind is empty.
func (o *outcome) opWallsMS(kind string) []float64 {
	var out []float64
	for _, op := range o.ops {
		if kind == "" || op.kind == kind {
			out = append(out, ms(op.wall))
		}
	}
	return out
}

func (o *outcome) totalCPU() time.Duration {
	var t time.Duration
	for _, op := range o.ops {
		t += op.cpu
	}
	return t
}

func (o *outcome) totalWall() time.Duration {
	var t time.Duration
	for _, op := range o.ops {
		t += op.wall
	}
	return t
}

// endToEnd computes the --trace 0 metrics from an untraced pass.
func endToEnd(o *outcome) map[string]metric {
	v := map[string]float64{
		"setup_s":      quantile(durationsMS(o.setup), 0.5) / 1e3,
		"op_mean_ms":   ms(o.totalWall()) / float64(len(o.ops)),
		"heap_live_mb": float64(o.heapLive) / 1e6,
	}
	return withUnits(endToEndSpecs, v)
}

// perLayer computes the --trace 1 metrics. Counts and operation
// percentiles come from the untraced pass; layer times from the traced
// one, whose spans and profile give them.
func perLayer(plain, traced *outcome, tr *tracer) map[string]metric {
	tr.finish()
	n := float64(len(plain.ops))
	perOp := func(x uint64) float64 { return float64(x) / n }
	spanMS := func(name string, self bool) float64 {
		dur, own := tr.totals(name, len(plain.ops))
		if self {
			dur = own
		}
		return float64(dur) / 1e6
	}
	var simOp sim.Duration
	for _, op := range plain.ops {
		simOp += op.sim
	}
	_, runSelf := tr.totals("sim.run", len(plain.ops))
	v := map[string]float64{
		"topo.build_ms":       quantile(durationsMS(plain.topoBuild), 0.5),
		"fabric.new_ms":       quantile(durationsMS(plain.fabricNew), 0.5),
		"sim.events":          perOp(plain.events),
		"fabric.pi4_pkts":     perOp(plain.pi4),
		"core.runs":           perOp(plain.runs),
		"core.coalesced":      perOp(plain.coalesced),
		"rib.installs":        perOp(plain.installs),
		"rib.leaves_changed":  perOp(plain.leavesChanged),
		"sim.op_ms":           float64(simOp) / float64(sim.Millisecond) / n,
		"sim.run_ms":          spanMS("sim.run", true) / n,
		"rib.install_ms":      spanMS("rib.install", false) / n,
		"rib.deliver_wait_ms": ms(traced.deliverWait) / n,
		"rib.resyncs":         float64(traced.resyncs),
		"op.p50_ms":           quantile(plain.opWallsMS(""), 0.5),
		"op.remove_p50_ms":    zeroIfNaN(quantile(plain.opWallsMS("remove"), 0.5)),
		"op.restore_p50_ms":   zeroIfNaN(quantile(plain.opWallsMS("restore"), 0.5)),
		"ops_per_s":           float64(len(plain.ops)) / plain.totalWall().Seconds(),
		"op.cpu_ms":           ms(plain.totalCPU()) / n,
		"runtime.alloc_mb":    float64(traced.allocBytes) / 1e6 / n,
		"runtime.gc_cycles":   float64(traced.gcCycles) / n,
		"runtime.gc_cpu_ms":   traced.gcCPU * 1e3 / n,
		"trace.overhead":      quantile(traced.opWallsMS(""), 0.5) / quantile(plain.opWallsMS(""), 0.5),
	}
	// A tail percentile is reported only when at least ten operations lie
	// beyond it; shorter runs read 0.
	if walls := plain.opWallsMS(""); len(walls) >= 40 {
		v["op.p75_ms"] = quantile(walls, 0.75)
	}
	if plain.events > 0 {
		v["sim.ns_per_event"] = float64(runSelf) / float64(plain.events)
	}
	if plain.installs > 0 {
		v["rib.useful_install_ratio"] = float64(plain.usefulInstalls) / float64(plain.installs)
	}
	if traced.replayBatches > 0 {
		v["rib.replay_ms"] = ms(traced.replay) / float64(traced.replayBatches)
	}
	for _, layer := range []string{"sim", "fabric", "core", "core.db", "fib", "rib", "other"} {
		v[layer+".cpu_ms"] = ms(tr.cpu[layer]) / n
	}
	return withUnits(perLayerSpecs, v)
}

func zeroIfNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// withUnits attaches each spec's unit; a spec without a value reads 0.
func withUnits(specs []metricSpec, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: v[s.name], Unit: s.unit}
	}
	return out
}

// sameBehaviour checks that two passes over the same inputs did the same
// simulated work: every count, simulated time and the final fingerprint
// must match exactly.
func sameBehaviour(a, b *outcome) error {
	if len(a.ops) != len(b.ops) {
		return fmt.Errorf("%d vs %d operations", len(a.ops), len(b.ops))
	}
	for i := range a.ops {
		if a.ops[i].kind != b.ops[i].kind || a.ops[i].sim != b.ops[i].sim {
			return fmt.Errorf("operation %d: %s in %v vs %s in %v", i,
				a.ops[i].kind, a.ops[i].sim, b.ops[i].kind, b.ops[i].sim)
		}
	}
	type count struct {
		name string
		a, b uint64
	}
	for _, c := range []count{
		{"sim events", a.events, b.events},
		{"PI-4 packets", a.pi4, b.pi4},
		{"discovery runs", a.runs, b.runs},
		{"coalesced reports", a.coalesced, b.coalesced},
		{"installs", a.installs, b.installs},
		{"useful installs", a.usefulInstalls, b.usefulInstalls},
		{"leaves changed", a.leavesChanged, b.leavesChanged},
		{"fingerprint", a.fingerprint, b.fingerprint},
		{"failed operations", uint64(a.failed), uint64(b.failed)},
	} {
		if c.a != c.b {
			return fmt.Errorf("%s: %d vs %d", c.name, c.a, c.b)
		}
	}
	return nil
}

// printTable writes the result's metrics, one per line, in spec order.
func printTable(w io.Writer, workload string, r result) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, r.Attempted, r.Failed, r.Correct)
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs} {
		for _, s := range specs {
			if m, ok := r.Metrics[s.name]; ok {
				fmt.Fprintf(w, "  %-26s %14.4f %s\n", s.name, m.Value, m.Unit)
			}
		}
	}
}
