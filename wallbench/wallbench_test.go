package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFlapList checks that one seed always draws the same flap list, that
// another seed draws a different one, and that both flap the same number
// of switches at each hop distance.
func TestFlapList(t *testing.T) {
	tp, err := topo.ByName(churnTopology)
	if err != nil {
		t.Fatal(err)
	}
	const seconds = passSeconds / 2
	a, b := flapList(tp, 3, seconds), flapList(tp, 3, seconds)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 3 drew two flap lists: %v vs %v", a, b)
	}
	c := flapList(tp, 4, seconds)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 3 and 4 drew the same flap list %v", a)
	}
	// Every seed flaps the same number of switches at each hop distance.
	host, _, _ := tp.Peer(tp.Endpoints()[0], 0)
	hops := switchHops(tp, host)
	mix := func(list []topo.NodeID) map[int]int {
		out := map[int]int{}
		for _, id := range list {
			out[hops[id]]++
		}
		return out
	}
	if !reflect.DeepEqual(mix(a), mix(c)) {
		t.Fatalf("seeds 3 and 4 flap different mixes: %v vs %v", mix(a), mix(c))
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric test reads.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloads runs each workload untraced and traced on one seed. The
// two passes must do the same simulated work (counts, simulated times,
// final fingerprint), and each must print exactly the metrics
// BENCHMARK.json declares, with the declared units and names in
// [A-Za-z0-9_.-]+.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(t *testing.T, got map[string]metric, want map[string]string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("printed %d metrics, declared %d", len(got), len(want))
		}
		for name, m := range got {
			if !valid.MatchString(name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]+", name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("metric %q printed but not declared", name)
			} else if unit != m.Unit {
				t.Errorf("metric %q printed in %q, declared in %q", name, m.Unit, unit)
			}
		}
	}
	for _, wl := range workloadNames() {
		if testing.Short() && wl == "cold-discovery" {
			continue
		}
		t.Run(wl, func(t *testing.T) {
			cfg := config{workload: wl, seed: 3, seconds: 1}
			plain, err := workloads[wl](cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := workloads[wl](cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBehaviour(plain, traced); err != nil {
				t.Fatalf("same seed, different behaviour: %v", err)
			}
			if plain.events == 0 || plain.fingerprint == 0 || len(plain.ops) == 0 {
				t.Fatalf("run measured nothing: %d ops, %d events", len(plain.ops), plain.events)
			}
			check(t, endToEnd(plain), want(decl.EndToEnd))
			check(t, perLayer(plain, traced, tr), want(decl.PerLayer))
		})
	}
}

// smallBatches installs generations of a 3x3 mesh (all up, one switch
// down, back up) into a RIB and returns the batches one subscriber
// received, the RIB, and the FM database fingerprint at the end.
func smallBatches(t *testing.T) ([]rib.Batch, *rib.RIB, uint64) {
	t.Helper()
	tp, err := topo.ByName("3x3 mesh")
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	r := rib.New(rib.Config{})
	m.OnDiscoveryComplete = func(core.Result) { r.Install(m.DB()) }
	m.StartDiscovery()
	e.Run()
	m.DistributeEventRoutes(func(core.DistResult) {})
	e.Run()
	sub := r.Subscribe("/")
	defer sub.Close()
	victim := flapList(tp, 1, 1)[0]
	if err := f.SetDeviceDown(victim, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := f.SetDeviceUp(victim, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	var batches []rib.Batch
	for last := r.Current().Gen; len(batches) == 0 || batches[len(batches)-1].Gen < last; {
		batches = append(batches, <-sub.Updates())
	}
	if len(batches) < 3 {
		t.Fatalf("want a sync and at least two deltas, got %d batches", len(batches))
	}
	return batches, r, m.DB().Fingerprint()
}

// TestVerifierRecordsMissingBatch feeds the verifier a stream with one
// delta missing: the check must report the operation as failed, and the
// verifier must keep going, so a later full sync verifies cleanly.
func TestVerifierRecordsMissingBatch(t *testing.T) {
	batches, r, want := smallBatches(t)

	whole := newVerifier()
	for _, b := range batches {
		whole.apply(b)
	}
	if errs := whole.check(want); len(errs) != 0 {
		t.Fatalf("complete stream failed verification: %v", errs)
	}

	gap := newVerifier()
	for i, b := range batches {
		if i != 1 { // drop the first delta
			gap.apply(b)
		}
	}
	if errs := gap.check(want); len(errs) == 0 {
		t.Fatal("stream missing a delta passed verification")
	}

	resync := r.Subscribe("/")
	defer resync.Close()
	gap.apply(<-resync.Updates())
	if errs := gap.check(want); len(errs) != 0 {
		t.Fatalf("verifier did not recover after a full sync: %v", errs)
	}
}

// TestLayerOf pins the CPU fold: the innermost repro/internal frame
// names the layer, core's DB methods fold into core.db, and samples
// with no such frame into other.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/core.(*DB).LinkAt", "repro/internal/core.(*Manager).probe"}, "core.db"},
		{[]string{"repro/internal/core.(*Manager).probe", "repro/internal/sim.(*Engine).Run"}, "core"},
		{[]string{"sort.Slice", "repro/internal/fib.Derive", "repro/internal/rib.(*RIB).Install"}, "fib"},
		{[]string{"runtime.gcBgMarkWorker"}, "other"},
		{[]string{"main.runCold"}, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
