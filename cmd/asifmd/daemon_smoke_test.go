package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/rib"
)

// newSmokeDaemon validates cfg and boots a daemon through its transient
// period, as main does before serving.
func newSmokeDaemon(t *testing.T, cfg experiment.DaemonConfig) *daemon {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.bootstrap(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonSmoke is `make daemon-smoke`: the daemon manages the default
// fat-tree under its churn rounds while 1000 in-process subscribers plus
// a set of real HTTP subscribers replay the diff stream concurrently;
// every reconstruction must be byte-identical to the live snapshot and
// fingerprint-identical to the FM's database.
func TestDaemonSmoke(t *testing.T) {
	d := newSmokeDaemon(t, experiment.DefaultDaemonConfig())
	if err := d.runSmoke(t, 1000); err != nil {
		t.Fatal(err)
	}
}

// smokeResult is one subscriber's verdict.
type smokeResult struct {
	id  int
	err error
}

// runSmoke drives the configured churn while subscribers replay
// concurrently, then verifies every reconstruction.
func (d *daemon) runSmoke(t *testing.T, subscribers int) error {
	rounds := d.cfg.Rounds
	if rounds == 0 {
		rounds = 6
	}

	// targetGen, once non-zero, is the generation at which a subscriber
	// stops reading; expected* are set before targetGen's batch is
	// published, so a subscriber that reached the target can compare.
	var (
		targetGen    atomic.Uint64
		expectedOnce sync.Once
		expectedWait = make(chan struct{})
		expectedCan  []byte
		expectedFP   uint64
	)
	verify := func(id int, rep *rib.Replayer) smokeResult {
		<-expectedWait
		if got := rep.Canonical("/"); string(got) != string(expectedCan) {
			return smokeResult{id, fmt.Errorf("subscriber %d: replayed state not byte-identical at gen %d", id, rep.Gen())}
		}
		fp, err := rep.Fingerprint()
		if err != nil {
			return smokeResult{id, fmt.Errorf("subscriber %d: %w", id, err)}
		}
		if fp != expectedFP {
			return smokeResult{id, fmt.Errorf("subscriber %d: fingerprint %#x, live DB %#x", id, fp, expectedFP)}
		}
		return smokeResult{id, nil}
	}

	results := make(chan smokeResult, subscribers+16)
	var wg sync.WaitGroup

	// In-process subscribers: the ISSUE's >= 1000 concurrent readers.
	for i := 0; i < subscribers; i++ {
		sub := d.rib.Subscribe("/")
		wg.Add(1)
		go func(id int, sub *rib.Subscription) {
			defer wg.Done()
			defer sub.Close()
			rep := rib.NewReplayer()
			for {
				b, ok := <-sub.Updates()
				if !ok {
					results <- smokeResult{id, fmt.Errorf("subscriber %d: stream closed early", id)}
					return
				}
				if err := rep.Apply(b); err != nil {
					results <- smokeResult{id, fmt.Errorf("subscriber %d: %w", id, err)}
					return
				}
				if t := targetGen.Load(); t > 0 && rep.Gen() >= t {
					break
				}
			}
			results <- verify(id, rep)
		}(i, sub)
	}

	// Real HTTP subscribers exercise the wire path end to end.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, d.handler())
	const httpSubs = 8
	for i := 0; i < httpSubs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("http://%s/subscribe?path=/", ln.Addr()))
			if err != nil {
				results <- smokeResult{id, err}
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
			rep := rib.NewReplayer()
			for sc.Scan() {
				var b rib.Batch
				if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
					results <- smokeResult{id, fmt.Errorf("http subscriber %d: %w", id, err)}
					return
				}
				if err := rep.Apply(b); err != nil {
					results <- smokeResult{id, fmt.Errorf("http subscriber %d: %w", id, err)}
					return
				}
				if t := targetGen.Load(); t > 0 && rep.Gen() >= t {
					results <- verify(id, rep)
					return
				}
			}
			results <- smokeResult{id, fmt.Errorf("http subscriber %d: stream ended early: %v", id, sc.Err())}
		}(subscribers + i)
	}

	// Continuous churn on this goroutine while subscribers stream; a
	// scrape per round keeps the observability plane live in smoke mode.
	for i := 0; i < rounds && d.ch != nil; i++ {
		d.mu.Lock()
		d.round()
		d.mu.Unlock()
		d.scrape()
	}
	d.mu.Lock()
	d.quiesce()
	d.mu.Unlock()

	// Publish the finish line, then one final audit so every subscriber
	// receives a batch at or past the target and can stop reading. The
	// audit rediscovers the identical fabric, so only the generation
	// number moves — expected values are computed for that final gen.
	finalGen := d.rib.Current().Gen + 1
	targetGen.Store(finalGen)
	d.mu.Lock()
	d.audit("smoke finish line")
	d.mu.Unlock()
	expectedOnce.Do(func() {
		cur := d.rib.Current()
		if cur.Gen != finalGen {
			// The audit installed more than once; re-target to reality.
			targetGen.Store(cur.Gen)
		}
		expectedCan = d.rib.Current().Canonical("/")
		expectedFP = d.m.DB().Fingerprint()
		close(expectedWait)
	})

	wg.Wait()
	close(results)
	failures := 0
	for r := range results {
		if r.err != nil {
			failures++
			if failures <= 10 {
				t.Log(r.err)
			}
		}
	}
	d.scrape()
	s := d.rib.Stats()
	t.Logf("asifmd smoke: %q %s: %d rounds, %d generations, %d+%d subscribers, %d resyncs, fingerprint %s: %d failures",
		d.cfg.Topology, d.cfg.Kind().Slug(), d.rounds, s.Gen, subscribers, httpSubs, s.Resyncs, s.Fingerprint, failures)
	if failures > 0 {
		return fmt.Errorf("asifmd: %d of %d subscribers failed verification", failures, subscribers+httpSubs)
	}
	return nil
}
