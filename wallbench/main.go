// Command wallbench is the repository's wall-clock benchmark. It drives
// the discovery stack only through its public functions (topo.ByName,
// fabric.New on a sim.Engine, core.Manager, rib.Install inside
// OnDiscoveryComplete, rib.Subscribe readers), checks the output of every
// operation, and prints every metric by name and unit.
//
//	wallbench --workload cold-discovery --seed 1 --seconds 24 --trace 0
//
// Workloads (README.md gives the reasons for each):
//
//	cold-discovery  Parallel discovery of a freshly built dragonfly 16x64
//	churn-full      switch remove/restore pairs on the 8-port 3-tree,
//	                full rediscovery + install per PI-5, 64 subscribers
//	churn-assim     the same flaps, Partial algorithm with coalesced
//	                assimilation (200 us window)
//
// Every workload is a closed loop with one operation in flight. The
// number of operations is a fixed function of --seconds, and the inputs
// a fixed function of --seed, so a run replays the same operations every
// time. With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with --trace 1 the run repeats the
// workload once untraced and once traced (spans plus a CPU profile), and
// the JSON object carries the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one named measurement as printed in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	traceDir string
}

// workloads maps each workload name to its runner. A runner executes the
// workload's fixed operation list once; tr is nil on untraced passes.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"cold-discovery": runCold,
	"churn-full":     func(c config, tr *tracer) (*outcome, error) { return runChurn(c, tr, false) },
	"churn-assim":    func(c config, tr *tracer) (*outcome, error) { return runChurn(c, tr, true) },
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed (flap list, fabric RNG)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds; sets the fixed operation count")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: untraced + traced pass, per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/wallbench-trace", "where a traced run writes its spans and per-layer table")
	flag.Parse()

	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q; want one of %v", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 || cfg.seconds > 600 {
		fatalf("--seconds %d out of range [1, 600]", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace %d: want 0 or 1", trace)
	}
	fmt.Fprintf(os.Stderr, "wallbench: %s seed %d seconds %d trace %d, GOMAXPROCS %d of %d CPUs, %s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	plain, err := run(cfg, nil)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res := result{
		Correct:   plain.correct,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   endToEnd(plain),
	}
	if trace == 1 {
		tr := newTracer()
		traced, err := run(cfg, tr)
		if err != nil {
			fatalf("%s traced: %v", cfg.workload, err)
		}
		if err := sameBehaviour(plain, traced); err != nil {
			fatalf("%s: traced pass diverged from untraced pass: %v", cfg.workload, err)
		}
		res.Correct = res.Correct && traced.correct
		res.Metrics = perLayer(plain, traced, tr)
		if err := tr.write(cfg, res); err != nil {
			fatalf("%s: writing trace: %v", cfg.workload, err)
		}
	}
	for _, p := range plain.problems {
		fmt.Fprintln(os.Stderr, "wallbench: failed:", p)
	}
	fmt.Fprintf(os.Stderr, "wallbench: operation wall times (ms, in order): %.1f\n", plain.opWallsMS(""))
	n := float64(len(plain.ops))
	fmt.Fprintf(os.Stderr, "wallbench: per operation: mean wall %.2f ms, mean process CPU %.2f ms\n",
		ms(plain.totalWall())/n, ms(plain.totalCPU())/n)
	printTable(os.Stdout, cfg.workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wallbench: "+format+"\n", args...)
	os.Exit(1)
}
