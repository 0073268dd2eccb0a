GO ?= go

.PHONY: verify ci fmt-check build test race vet bench bench-check cover-stats golden fuzz fuzz-smoke chaos chaos-serve persist-check sweep-stray

## verify: the tier-1 gate — gofmt, vet, build, race-test everything, pin the
## golden outputs, smoke the fuzz targets on their seed corpora, and
## hold the sketch files to their coverage floor. The stray-baseline
## sweep runs first so a leftover benchjson scratch file can never be
## mistaken for (or sorted above) a committed BENCH_PR* baseline.
## The stages run as sequential sub-makes (not parallel prerequisites)
## so `make -j verify` still stops at the first failure instead of
## racing vet diagnostics against a doomed race run.
verify:
	$(MAKE) sweep-stray
	$(MAKE) fmt-check
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

## fmt-check: fail when any Go file differs from gofmt's output.
## gofmt -l exits 0 either way, so the listing itself is the verdict.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "gofmt -l lists files needing gofmt -w:" >&2; echo "$$out" >&2; exit 1; fi

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

## FUZZ_TARGETS: every fuzz target as package:Func. fuzz-smoke and
## fuzz both loop over it through fuzz_each, which takes the fuzz time.
FUZZ_TARGETS := \
	./internal/obs:FuzzHistogramQuantile \
	./internal/armsim:FuzzAsmParse \
	./internal/survey:FuzzSurveyScores \
	./internal/survey:FuzzReadCSV \
	./internal/stats:FuzzMomentsMerge \
	./internal/stats:FuzzCoMomentsMerge \
	./internal/obs/tsdb:FuzzTSDBChunkDecode \
	./internal/store:FuzzDecodeEntry
fuzz_each = @set -e; for t in $(FUZZ_TARGETS); do \
	echo "$(GO) test $${t%%:*} -run '^$$' -fuzz $${t\#\#*:} -fuzztime $(1)"; \
	$(GO) test $${t%%:*} -run '^$$' -fuzz $${t\#\#*:} -fuzztime $(1); \
done

## fuzz-smoke: 2s of coverage-guided fuzzing per target — enough to
## exercise the corpora plus a few thousand mutations in CI.
fuzz-smoke:
	$(call fuzz_each,2s)

## fuzz: the longer run — 30s per target locally, raised by the
## nightly workflow with FUZZTIME=5m.
FUZZTIME ?= 30s
fuzz:
	$(call fuzz_each,$(FUZZTIME))

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

## chaos: the fault-injection sweep (CHAOS_SEEDS seeds, default 200):
## one clean baseline at 1 worker, then a faulted pass at worker counts
## 1, 2, and 8, each on a dedicated work-stealing runtime; exits
## non-zero if any statistic drifts from the baseline under recoverable
## faults at any count. The nightly workflow raises CHAOS_SEEDS.
CHAOS_SEEDS ?= 200
chaos:
	$(GO) run ./cmd/pblstudy chaos -workerset 1,2,8 -seeds $(CHAOS_SEEDS)

## chaos-serve: the same sweep issued as /v1/run requests against the
## HTTP service with the service-layer fault mix armed (injected
## queue-full sheds, slow backends, memory-cache corruption, and the
## persistent tier's corrupt/read/write faults) on top of the runtime
## mix, at each worker count. The second pass runs on a freshly
## restarted daemon over the same cache directory: every response must
## stay byte-identical to the one clean server's baseline across the
## restart, served from the disk tier.
chaos-serve:
	$(GO) run ./cmd/pblstudy chaos -serve -workerset 1,2,8 -seeds $(CHAOS_SEEDS)

## persist-check: the cache-persistence gate — build pbld, populate a
## -cache-dir over HTTP, SIGTERM, restart on the same directory, and
## fail unless every replayed request comes back byte-identical as a
## verified disk hit (asserted via store_disk_hits_total in /metrics).
persist-check:
	./scripts/cache_persistence.sh

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

## bench: record the perf surface as a new committed baseline,
## BENCH_PR$(PR).json: the gated union above at a single count, plus
## the recorded-only extras the gate leaves out because they are too
## machine-sensitive for a 20% bound — the 200-seed engine sweep, the
## serve HTTP load benchmarks, and the store's write-behind spill
## (DiskPut creates and renames real files). Usage: make bench PR=14
bench: BENCH_COUNT = 1
bench:
	@test -n "$(PR)" || { echo "usage: make bench PR=<n>" >&2; exit 2; }
	{ $(GATED_BENCH) && \
	  $(GO) test ./internal/engine/ -bench 'Sweep200' -benchtime 2x -run '^$$' && \
	  $(GO) test ./internal/serve/ -bench 'ServeCachedRun|ServeComputeRun' -benchmem -run '^$$' && \
	  $(GO) test ./internal/store/ -bench 'DiskPut' -benchmem -run '^$$'; } \
	| $(GO) run ./cmd/benchjson -o BENCH_PR$(PR).json

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
