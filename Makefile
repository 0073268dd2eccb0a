GO ?= go

.PHONY: verify ci build test race vet bench bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 bench-check cover-stats golden fuzz fuzz-smoke chaos chaos-serve persist-check sweep-stray

## verify: the tier-1 gate — vet, build, race-test everything, pin the
## golden outputs, smoke the fuzz targets on their seed corpora, and
## hold the sketch files to their coverage floor. The stray-baseline
## sweep runs first so a leftover benchjson scratch file can never be
## mistaken for (or sorted above) a committed BENCH_PR* baseline.
## The stages run as sequential sub-makes (not parallel prerequisites)
## so `make -j verify` still stops at the first failure instead of
## racing vet diagnostics against a doomed race run.
verify:
	$(MAKE) sweep-stray
	$(MAKE) vet
	$(MAKE) build
	$(MAKE) race
	$(MAKE) golden
	$(MAKE) fuzz-smoke
	$(MAKE) cover-stats

## sweep-stray: remove benchjson scratch output wherever it landed.
## BENCH_BASELINE below globs BENCH_PR*.json, which cannot match
## *.new.json — but a stray scratch file at the root is still noise
## (PR 7 left one behind), so the gate sweeps it unconditionally.
sweep-stray:
	rm -f ./*.new.json ./internal/*.new.json

## ci: what the GitHub Actions verify job runs; alias of verify.
ci: verify

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## golden: byte-compare `pblstudy run -json` and `pblstudy cohort
## -json` against testdata/golden. Regenerate a deliberately changed
## baseline with:
##   go test -run TestGolden -update .
golden:
	$(GO) test -run TestGolden .

## fuzz-smoke: 2s of coverage-guided fuzzing per target — enough to
## exercise the corpora plus a few thousand mutations in CI.
fuzz-smoke:
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzHistogramQuantile -fuzztime 2s
	$(GO) test ./internal/armsim -run '^$$' -fuzz FuzzAsmParse -fuzztime 2s
	$(GO) test ./internal/survey -run '^$$' -fuzz FuzzSurveyScores -fuzztime 2s
	$(GO) test ./internal/survey -run '^$$' -fuzz FuzzReadCSV -fuzztime 2s
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzMomentsMerge -fuzztime 2s
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzCoMomentsMerge -fuzztime 2s
	$(GO) test ./internal/obs/tsdb -run '^$$' -fuzz FuzzTSDBChunkDecode -fuzztime 2s

## fuzz: the longer run — 30s per target locally, raised by the
## nightly workflow with FUZZTIME=5m.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzHistogramQuantile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/armsim -run '^$$' -fuzz FuzzAsmParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/survey -run '^$$' -fuzz FuzzSurveyScores -fuzztime $(FUZZTIME)
	$(GO) test ./internal/survey -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzMomentsMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzCoMomentsMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/tsdb -run '^$$' -fuzz FuzzTSDBChunkDecode -fuzztime $(FUZZTIME)

## cover-stats: hold the mergeable-sketch implementation to a >=90%
## statement-coverage floor. The sketches are the numeric foundation
## every reduction now folds through; an uncovered branch there is an
## uncovered associativity or compensation path. The awk pass reads
## the raw coverprofile (file:lo,hi numStmts hitCount) and weights by
## statement count, scoped to sketch.go only so unrelated stats code
## cannot dilute or subsidize the floor.
cover-stats:
	$(GO) test ./internal/stats -coverprofile=cover-stats.out -count=1 > /dev/null
	@awk -F'[ ]' '/internal\/stats\/sketch\.go:/ { total += $$2; if ($$3 > 0) covered += $$2 } \
	  END { pct = 100 * covered / total; \
	    printf "sketch.go statement coverage: %.1f%% (floor 90%%)\n", pct; \
	    if (pct < 90) exit 1 }' cover-stats.out
	@rm -f cover-stats.out

## chaos: the fault-injection sweep (CHAOS_SEEDS seeds, default 200),
## run at worker counts 1, 2, and 8 on dedicated work-stealing
## runtimes; exits non-zero if any statistic drifts under recoverable
## faults at any count. The nightly workflow raises CHAOS_SEEDS.
CHAOS_SEEDS ?= 200
chaos:
	$(GO) run ./cmd/pblstudy chaos -workerset 1,2,8 -seeds $(CHAOS_SEEDS)

## chaos-serve: the same sweep issued as /v1/run requests against the
## HTTP service with the service-layer fault mix armed (injected
## queue-full sheds, slow backends, memory-cache corruption, and the
## persistent tier's corrupt/read/write faults) on top of the runtime
## mix. The second pass runs on a freshly restarted daemon over the
## same cache directory: every response must stay byte-identical to
## the clean server across the restart, served from the disk tier, at
## each worker count.
chaos-serve:
	$(GO) run ./cmd/pblstudy chaos -serve -workerset 1,2,8 -seeds $(CHAOS_SEEDS)

## persist-check: the cache-persistence gate — build pbld, populate a
## -cache-dir over HTTP, SIGTERM, restart on the same directory, and
## fail unless every replayed request comes back byte-identical as a
## verified disk hit (asserted via store_disk_hits_total in /metrics).
persist-check:
	./scripts/cache_persistence.sh

## bench: sweep + tracer benchmarks (PR2 baseline) and the
## fault-injection overhead benchmarks (disabled-path must stay at
## 0 allocs/op), recorded via benchjson.
bench:
	{ $(GO) test ./internal/engine/ -bench 'Sweep200' -benchtime 2x -run '^$$' && \
	  $(GO) test ./internal/obs/ -bench 'Span' -benchmem -run '^$$'; } \
	| $(GO) run ./cmd/benchjson -o BENCH_PR2.json
	$(GO) test ./internal/fault/ -bench . -benchmem -run '^$$' \
	| $(GO) run ./cmd/benchjson -o BENCH_PR3.json

## bench-pr4: the PR4 perf surface — the disabled-path hooks that must
## stay at 0 allocs/op (fault hits, obs spans) plus the serve cache and
## server load benchmarks — recorded via benchjson for the CI compare
## gate and the EXPERIMENTS.md latency numbers.
bench-pr4:
	{ $(GO) test ./internal/fault/ -bench . -benchmem -run '^$$' && \
	  $(GO) test ./internal/obs/ -bench 'Span' -benchmem -run '^$$' && \
	  $(GO) test ./internal/serve/ -bench . -benchmem -run '^$$'; } \
	| $(GO) run ./cmd/benchjson -o BENCH_PR4.json

## bench-pr5: the PR5 perf surface — the flight recorder's incident
## hook, disabled (must stay 0 allocs/op — every shed/retry/fault site
## pays it) and enabled (one ring write under a sharded lock) — the
## numbers EXPERIMENTS.md quotes for recorder overhead.
bench-pr5:
	$(GO) test ./internal/obs/flightrec/ -bench Event -benchmem -run '^$$' \
	| $(GO) run ./cmd/benchjson -o BENCH_PR5.json

## bench-pr6: the PR6 perf surface — the scheduler runtime's hot paths
## (deque push/pop, index-pool claims, spawn-or-inline at 0 allocs,
## steal overhead on imbalanced regions, padded-vs-shared counters)
## plus the serve cache hit and cached-run load benchmarks and the
## flight-recorder Event hook, so BENCH_PR6.json is a superset of the
## PR5 baseline and compares cleanly against it.
bench-pr6:
	{ $(GO) test ./internal/sched/ -bench . -benchmem -run '^$$' && \
	  $(GO) test ./internal/obs/flightrec/ -bench Event -benchmem -run '^$$' && \
	  $(GO) test ./internal/serve/ -bench 'CacheHitDo|ServeCachedRun' -benchmem -run '^$$'; } \
	| $(GO) run ./cmd/benchjson -o BENCH_PR6.json

## GATED_BENCH is the union perf surface the bench-check gate re-runs:
## every deterministic micro benchmark pinned by a committed baseline —
## fault hooks, obs spans and histogram observations, the flight
## recorder's Event hook, the scheduler's hot paths plus Introspect,
## the profiler's disabled path, and the serve cache hit. The HTTP load
## benchmarks are throughput records for EXPERIMENTS.md, far too
## machine-sensitive for a 20% gate, so they stay out of the surface.
GATED_BENCH = { $(GO) test ./internal/fault/ -bench . -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/ -bench 'Span|Hist' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/flightrec/ -bench Event -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/prof/ -bench . -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/sched/ -bench 'DequeOwner|IndexPoolNext|SpawnInline|StealOverhead|Introspect' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/stats/ -bench 'MomentsAdd|MomentsMerge|CoMomentsAdd' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/store/ -bench 'DiskHit|Compress|Decompress' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/tsdb/ -bench 'TSDBAppend|TSDBQuery' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/serve/ -bench 'CacheHitDo' -benchmem -count $(BENCH_COUNT) -run '^$$'; }
BENCH_COUNT ?= 3

## bench-pr7: record the PR7 perf surface (the full gated union above,
## single-count) as the newest committed baseline.
bench-pr7: BENCH_COUNT = 1
bench-pr7:
	$(GATED_BENCH) | $(GO) run ./cmd/benchjson -o BENCH_PR7.json

## bench-pr8: the PR8 baseline — the gated union plus the sketch hot
## paths (Moments.Add on the per-student path must stay 0 allocs/op;
## Merge folds 64 partials, the shape of a chunk-ordered reduction).
bench-pr8: BENCH_COUNT = 1
bench-pr8:
	$(GATED_BENCH) | $(GO) run ./cmd/benchjson -o BENCH_PR8.json

## bench-pr9: the PR9 baseline — the gated union plus the persistent
## tier's hot paths: the per-miss disk probe (read + verify + inflate)
## and the codec halves join the gated union; the write-behind spill
## (DiskPut) is recorded here for EXPERIMENTS.md but stays out of the
## gate — it creates and renames real files, which is as
## machine-sensitive as the HTTP load benchmarks the gate already
## excludes. The memory-hit path (CacheHitDo) stays in the union at
## 0 allocs/op — attaching the disk tier must not add a byte to the
## hit path.
bench-pr9: BENCH_COUNT = 1
bench-pr9:
	{ $(GATED_BENCH) && \
	  $(GO) test ./internal/store/ -bench 'DiskPut' -benchmem -count $(BENCH_COUNT) -run '^$$'; } \
	| $(GO) run ./cmd/benchjson -o BENCH_PR9.json

## bench-pr10: the PR10 baseline — the gated union plus the embedded
## TSDB's hot paths: the per-sample Gorilla chunk append (the sampler
## pays it for every series on every tick — gated at 0 allocs/op) and
## a rate() range query over an hour of 5s samples (the /debug/tsdb
## read path).
bench-pr10: BENCH_COUNT = 1
bench-pr10:
	$(GATED_BENCH) | $(GO) run ./cmd/benchjson -o BENCH_PR10.json

## bench-check: re-run the gated perf surface and fail if it regressed
## against the NEWEST committed BENCH_PR*.json baseline — more than 20%
## ns/op growth, or ANY allocs/op growth (the disabled paths pin 0).
## One baseline, not one per PR: benchjson's compare never fails on
## entries only one side has, so the newest (superset) baseline gates
## everything the older ones did. Scratch output goes to BENCH.new.json
## (gitignored; the BENCH_PR* glob cannot pick it up as a baseline).
## -count=3: benchjson's compare folds repeated runs to their minimum,
## the noise-robust statistic, so one interference spike on a shared CI
## machine cannot fail the gate.
BENCH_BASELINE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1)
bench-check:
	$(GATED_BENCH) | $(GO) run ./cmd/benchjson -o BENCH.new.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) BENCH.new.json -tolerance 0.20
	rm -f BENCH.new.json
