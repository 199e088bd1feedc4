package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one traced interval at a layer boundary, recorded by the
// benchmark around its own calls into the stack. Spans of one operation
// share Op; Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps a traced pass's spans in memory and its CPU profile in a
// buffer; both are written out when the run ends. Every method is a
// no-op on a nil tracer, which is how untraced passes run.
type tracer struct {
	base    time.Time
	spans   []span
	profile bytes.Buffer
	cpu     cpuFold
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
}

// do runs f inside a span and, while profiling, under a pprof label
// carrying the span name, so CPU samples taken in f can be told apart.
// It returns the span's index.
func (t *tracer) do(name string, op, parent int, f func(id int)) int {
	if t == nil {
		f(-1)
		return -1
	}
	id := t.begin(name, op, parent)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { f(id) })
	t.end(id)
	return id
}

// label runs f under a pprof label without opening a span; goroutines f
// starts inherit the label.
func (t *tracer) label(name string, f func()) {
	if t == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { f() })
}

// startProfile starts the CPU profile over the timed section.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	return pprof.StartCPUProfile(&t.profile)
}

// stopProfile stops the profile and folds its samples by layer, keeping
// only samples taken inside operations: set-up and verification spans
// are outside the timed section.
func (t *tracer) stopProfile() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	fold, err := foldProfile(t.profile.Bytes(), func(span string) bool {
		return span != "verify" && !strings.HasPrefix(span, "setup")
	})
	if err != nil {
		return err
	}
	t.cpu = fold
	return nil
}

// finish computes every span's self time: its duration minus the time
// its direct children cover. Children of one span never overlap, since
// each is opened and closed on the benchmark's single driving goroutine.
func (t *tracer) finish() {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - child[i]
	}
}

// totals returns the summed duration and self time, in nanoseconds, of
// the spans with the given name that belong to operations 0 to ops-1;
// set-up spans and the churn workloads' closing audit are left out.
func (t *tracer) totals(name string, ops int) (dur, self int64) {
	for _, s := range t.spans {
		if s.Name == name && s.Op >= 0 && s.Op < ops {
			dur += s.End - s.Start
			self += s.Self
		}
	}
	return dur, self
}

// write stores the spans and the per-layer table under cfg.traceDir.
func (t *tracer) write(cfg config, res result) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	doc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".spans.json", doc, 0o644); err != nil {
		return err
	}
	var table bytes.Buffer
	printTable(&table, cfg.workload, res)
	return os.WriteFile(stem+".layers.txt", table.Bytes(), 0o644)
}
