# Tier-1 verification for the asifabric reproduction.
#
#   make          - build + vet + test (the default gate)
#   make verify   - the full gate: gofmt check, build, vet, test,
#                   race-detector test, 1-iteration benchmark smoke,
#                   JSON run-report schema smoke, span pipeline smoke,
#                   spans-disabled zero-alloc regression, chaos smoke,
#                   parallel-sweep determinism smoke, FM-daemon
#                   serving-layer smoke (1000-subscriber replay identity),
#                   observability plane smoke (Prometheus /metrics +
#                   staleness SLO),
#                   continuous-assimilation smoke (keeper-driven coalesced
#                   churn), large-fabric serving-path smoke (dragonfly
#                   16x64 install budget + replay identity), benchmark
#                   regression diff against BENCH_sim.json
#   make race     - go test -race ./...
#   make fuzz     - bounded native-fuzzing burst on the chaos harness
#   make bench    - figure + engine benchmarks -> BENCH_sim.json
#                   (benchstat-compatible raw lines plus parsed metrics,
#                   with results/bench_baseline.txt embedded as the
#                   before/baseline section)

GO ?= go
BENCHTIME ?= 3x
# Each benchmark runs BENCHCOUNT times; benchjson -diff compares the
# per-benchmark minimum, which keeps the regression gate stable on busy
# or single-core hosts despite the short BENCHTIME.
BENCHCOUNT ?= 5
BENCH_BASELINE ?= results/bench_baseline.txt

.PHONY: all build vet test race verify bench bench-smoke bench-diff fmt-check json-smoke span-smoke alloc-check chaos-smoke chaos-par-smoke daemon-smoke obs-smoke assim-smoke scale-smoke fuzz

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke proves every benchmark still runs (one iteration each)
# without paying for stable measurements; part of the verify gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /dev/null

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# json-smoke proves the machine-readable pipeline end to end: a telemetry
# run's report must decode against the run-report schema.
json-smoke:
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -alg parallel -telemetry -json \
		| $(GO) run ./cmd/reportjson > /dev/null

# span-smoke proves the causal-trace pipeline end to end: a traced run's
# Chrome trace-event file must load back through asitrace, and a traced
# run report (spans section, v2 envelope) must decode.
span-smoke:
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -alg parallel \
		-spans-out $${TMPDIR:-/tmp}/asi_span_smoke.json > /dev/null
	$(GO) run ./cmd/asitrace $${TMPDIR:-/tmp}/asi_span_smoke.json > /dev/null
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -alg parallel -spans -json \
		| $(GO) run ./cmd/reportjson > /dev/null
	rm -f $${TMPDIR:-/tmp}/asi_span_smoke.json

# alloc-check pins the instrumentation hooks' disabled cost at zero
# allocations on the fabric hot path.
alloc-check:
	$(GO) test -run 'ZeroAlloc' ./internal/fabric/

# chaos-smoke sweeps generated chaos scenarios through every paper
# algorithm (cross-checked topology fingerprints) and the convergence
# oracle; any failure prints a shrunk minimal reproducer.
chaos-smoke:
	$(GO) run ./cmd/asichaos -runs 25 -algs all

# chaos-par-smoke proves the parallel sweep is deterministic: the same
# sweep at -workers 1 and -workers 8 must print byte-identical verbose
# output, per-scenario fingerprints included.
chaos-par-smoke:
	$(GO) run ./cmd/asichaos -runs 16 -workers 1 -v > $${TMPDIR:-/tmp}/asi_sweep_w1.txt
	$(GO) run ./cmd/asichaos -runs 16 -workers 8 -v > $${TMPDIR:-/tmp}/asi_sweep_w8.txt
	diff $${TMPDIR:-/tmp}/asi_sweep_w1.txt $${TMPDIR:-/tmp}/asi_sweep_w8.txt
	rm -f $${TMPDIR:-/tmp}/asi_sweep_w1.txt $${TMPDIR:-/tmp}/asi_sweep_w8.txt

# fuzz gives each native fuzz target a short bounded burst; the committed
# corpus under internal/chaos/testdata/corpus seeds FuzzScenario.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzGenerated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzCoalesce$$' -fuzztime $(FUZZTIME)

# daemon-smoke proves the FM daemon's serving layer end to end: asifmd
# manages a fat-tree under scripted churn while 1000 in-process plus 8
# HTTP subscribers replay the diff stream; every reconstructed snapshot
# must be byte-identical to the live RIB and fingerprint-identical to
# core.DB.Fingerprint.
daemon-smoke:
	$(GO) test -run '^TestDaemonSmoke$$' -count=1 -v ./cmd/asifmd/

# obs-smoke proves the continuous observability plane end to end: an
# in-process asifmd under churn is scraped twice over HTTP; the
# Prometheus text must parse, every windowed rate must be finite, and the
# staleness percentiles must be populated.
obs-smoke:
	$(GO) test -run 'TestObsSmoke' -count=1 ./cmd/asifmd/

# assim-smoke proves the continuous-assimilation engine end to end: 12
# keeper-driven churn rounds against the coalescing partial FM must
# converge to ground truth at quiescence, leave nothing stranded in the
# debounce window, and publish the fm.assim.* counters plus the
# DB-staleness gauges over /metrics.
assim-smoke:
	$(GO) test -run '^TestAssimSmoke$$' -count=1 -v ./cmd/asifmd/

# scale-smoke proves the serving path at the catalogue's large dragonfly:
# discover dragonfly 16x64 (2048 devices, 10720 links), install it into a
# RIB within a 1 s wall budget, and replay the subscriber stream to the
# live database's fingerprint. Measured install: 45-57 ms on a 2-core
# Xeon @ 2.1 GHz, so the budget leaves a ~18x margin for busy hosts while
# a super-linear install (the per-device search it replaced did not
# finish in 9 minutes at this size) still fails it.
scale-smoke:
	$(GO) test -run '^TestScaleSmoke$$' -count=1 -v ./internal/rib/

# bench-diff re-runs the benchmark suite and gates it against the
# committed BENCH_sim.json: an allocs/op increase beyond max(2, 0.1%)
# rounding/GC slack fails; ns/op may regress at most 10% plus the noise
# both runs measured across their -count repeats. Regenerate the
# baseline with `make bench` when a change legitimately moves the
# numbers.
bench-diff:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ./internal/sim \
		| $(GO) run ./cmd/benchjson -diff BENCH_sim.json

verify: fmt-check build vet test race bench-smoke json-smoke span-smoke alloc-check chaos-smoke chaos-par-smoke daemon-smoke obs-smoke assim-smoke scale-smoke bench-diff

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ./internal/sim \
		| $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_BASELINE) -o BENCH_sim.json
