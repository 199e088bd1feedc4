package rib

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// installBudget bounds one install of a fresh dragonfly 16x64 discovery
// (2048 devices, 10720 links). The Makefile's scale-smoke target states
// the measured time and the margin.
const installBudget = time.Second

// TestScaleSmoke runs the serving path at the catalogue's large
// dragonfly: discover it, install the result into a RIB, replay the
// subscriber stream and check it against the live database. A
// super-linear install (the per-device breadth-first search this
// replaced took minutes here) fails the wall budget.
func TestScaleSmoke(t *testing.T) {
	const name = "dragonfly 16x64"
	tp, err := topo.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	m.StartDiscovery()
	e.Run()
	db := m.DB()
	if db.NumNodes() != len(tp.Nodes) || db.NumLinks() != len(tp.Links) {
		t.Fatalf("%s: discovered %d/%d devices/links of %d/%d", name,
			db.NumNodes(), db.NumLinks(), len(tp.Nodes), len(tp.Links))
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}

	r := New(Config{})
	sub := r.Subscribe("/")
	defer sub.Close()
	start := time.Now()
	gen, d := r.Install(db)
	took := time.Since(start)
	budget := installBudget
	if raceEnabled {
		budget *= 20 // the race detector's instrumentation, not the install
	}
	t.Logf("%s: install took %v (budget %v)", name, took, budget)
	if took > budget {
		t.Errorf("%s: install took %v, budget %v", name, took, budget)
	}
	if len(d.AddedDevices) != db.NumNodes() || len(d.AddedLinks) != db.NumLinks() {
		t.Errorf("install diff %v, want +%d devices +%d links", d, db.NumNodes(), db.NumLinks())
	}

	rep := NewReplayer()
	for rep.Gen() != gen {
		if err := rep.Apply(<-sub.Updates()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := rep.Canonical("/"), r.Current().Canonical("/"); !bytes.Equal(got, want) {
		t.Error("replayed state diverged from the installed snapshot")
	}
	fp, err := rep.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := db.Fingerprint(); fp != want {
		t.Errorf("replayed fingerprint %#x, live database %#x", fp, want)
	}
}
