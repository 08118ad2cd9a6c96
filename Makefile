# Development entry points. Everything is stdlib-only; plain `go` suffices.

GO ?= go

# Per-benchmark time budget for `make bench` (passed to -benchtime when set;
# e.g. `make bench BENCHTIME=100ms` for a quick sweep, `BENCHTIME=5x` for
# iteration counts).
BENCHTIME ?=

# The sorted set's cross-configuration tests: its unit tests that run every
# {figure2, split} x {locking, mcas} cell (the hop-cost pin and the
# concurrent key-churn checks) plus its linearizability oracle over the same
# matrix. check-rc runs them under -race.
SET_MATRIX = -race -count=1 -run 'TestSearchHandsCountsAlong|TestConcurrent(Disjoint|Contended)Keys|TestSortedSetLinearizable' ./internal/dlist ./internal/linear

.PHONY: all check build vet check-fmt test check-inline check-race check-fault check-rc check-timeline check-census check-doctor race cover bench bench-smoke check-bench fuzz experiments stress explore examples clean

all: check

# The default gate: compile, vet, tests, and the race detector in one target.
# check-race runs first: it covers the packages with the trickiest
# concurrency (seqlock rings, the lifecycle ledger/auditor, the LFRC core
# and the dead-object chains it hands the reclaimer,
# the MCAS engine's descriptors reused in place under a version) and fails
# fast before the full -race sweep. check-fault stresses every
# structure under deterministic fault injection with the lifecycle auditor
# armed, once with an incremental-destroy budget so releases park zombies
# while concurrent drains race them. check-rc repeats that sweep across both reference-count
# strategies — the count protocol is safety, so every cell must pass
# unconditionally.
# check-timeline covers the telemetry ring (seqlock capture vs read) and the
# lfrctop render layer under the race detector.
# check-census covers the heap-census graph pass — including censuses taken
# while mutators run, which must be race-clean and strictly read-only.
# check-doctor covers the health watchdog's rule engine, bundle capture, and
# the chaos -> bundle -> lfrcdoctor offline-diagnosis loop.
# check-bench builds and tests the benchmark under bench/, its own module that
# root `go test ./...` never reaches. check-inline keeps the hot path's
# accessors inlinable. check-fmt fails on any file gofmt would change.
check: build vet check-fmt check-inline test check-race check-fault check-rc check-timeline check-census check-doctor race check-bench

# Focused race gate over the concurrency-critical packages, three runs each:
# the race detector's scheduling makes goroutines migrate between Ps often,
# which is what exposes a test that assumes one goroutine keeps one stripe.
check-race:
	$(GO) test -race -count=3 ./internal/obs ./internal/lifecycle ./internal/core ./internal/reclaim ./internal/contend ./internal/dcas ./internal/mem ./internal/stripe

# Fault-injection gate: the multi-seed chaos sweep, the reclamation sweep
# (the same storm with an incremental-destroy budget, 3 seeds) and the
# degraded-mode / typed-error tests, under the race detector.
check-fault:
	$(GO) test -race -count=1 -run 'TestFault|TestDegraded|TestHeapExhaust|TestErr|TestReclaim|TestReclamation' .

# Cross-strategy RC gate: the strategy unit matrix in internal/core (figure2
# vs split protocol equivalence, packing boundaries, refill/merge paths), the
# split boundary tests on both engines, and the system-level fault/chaos/
# auditor sweep over every {figure2, split} x {locking, mcas} cell, 2 seeds
# each, and the sorted set's configuration matrix, under the
# race detector.
check-rc:
	$(GO) test -race -count=1 ./internal/core
	$(GO) test -race -count=1 -run 'TestRCStrategy|TestSplit' .
	$(GO) test $(SET_MATRIX)

# Telemetry-timeline gate: the ring's concurrent capture-vs-read seqlock
# tests, the system-level timeline tests, and the lfrctop render/fetch tests.
check-timeline:
	$(GO) test -race -count=1 ./internal/timeline ./cmd/lfrctop
	$(GO) test -race -count=1 -run 'TestTimeline' .

# Heap-census gate: the graph/SCC unit suite, the cycle-leak acceptance
# scenario (with budget-parked zombies as limbo), and censuses taken while mutator
# goroutines run — all under the race detector, which is what proves the
# census's read-only snapshot loads never race the engines. The count audit
# and the backup collector run on the census graph, so their suites run here
# too.
check-census:
	$(GO) test -race -count=1 ./internal/census ./internal/pprofenc ./internal/gctrace
	$(GO) test -race -count=1 -run 'TestCensus|TestDebugMux|TestCollect|TestAudit' .

build:
	$(GO) build ./...

# The functions every LFRC operation calls on its hot path, as "package
# function" pairs. Each must stay inlinable: the heap accessors and the
# engines' step-hook checks so the engines pay no call per cell access, the
# recorder's and the RC's taps so an operation without a recorder pays one
# inlined nil check. A change
# that pushes one past the inliner's budget fails here rather than
# silently costing every operation a call.
INLINE_REQUIRED = \
	'internal/mem (*Heap).cell' \
	'internal/mem (*Heap).Load' \
	'internal/mem (*Heap).Store' \
	'internal/mem (*Heap).CAS' \
	'internal/dcas (*LockingEngine).yield' \
	'internal/dcas (*MCASEngine).yield' \
	'internal/obs (*Recorder).Sample' \
	'internal/obs (*Recorder).RecordT' \
	'internal/core (*RC).recordT' \
	'internal/core (*RC).count'

check-inline:
	@inl=$$($(GO) build -gcflags=-m ./internal/mem ./internal/dcas ./internal/obs ./internal/core 2>&1 | \
		sed -n 's/^\(.*\)\/[^/]*\.go:[0-9]*:[0-9]*: can inline \(.*\)$$/\1 \2/p'); \
	fail=0; \
	for f in $(INLINE_REQUIRED); do \
		printf '%s\n' "$$inl" | grep -qxF "$$f" || { echo "check-inline: $$f is not inlinable"; fail=1; }; \
	done; \
	[ $$fail = 0 ] && echo "check-inline: PASS"; exit $$fail

vet:
	$(GO) vet ./...

check-fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "check-fmt: not gofmt-clean:"; echo "$$out"; exit 1; fi; \
	echo "check-fmt: PASS"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' $(if $(BENCHTIME),-benchtime=$(BENCHTIME)) ./...

# One quick pass over the two benchmarks that gate a behaviour: the timeline
# capture path (O4; the benchmark itself fails if a snapshot exceeds 1µs)
# and the watchdog's quiet path (O6; must stay allocation-free and fire no
# incident). Speed is measured by the benchmark under bench/.
bench-smoke:
	$(GO) test -bench='BenchmarkTimelineCapture|BenchmarkWatchdogQuietPath' -benchtime=1x -run='^$$' .

# The benchmark's own tests (bench/ is a separate module importing this one).
# Performance records are taken with `bash bench/run.sh` and compared with
# its --compare mode; see bench/README.md.
check-bench:
	cd bench && $(GO) test -count=1 ./...

# Watchdog / diagnostic-bundle gate. Three layers:
#   1. the rule-engine unit suite and the system-level watchdog/bundle tests
#      (capture-while-mutating runs under the race detector);
#   2. a planted heap exhaustion: mem.alloc:nth=201+...+300 fails the
#      100 consecutive allocation attempts 201-300, so every operation that
#      meets the run fails its initial attempt and all 8 heap-pressure
#      retries. Setup makes well under 200 attempts (one chaos run makes
#      ~500 in its first 100ms) and the run is over long before 500ms, so
#      the schedule spares setup and plants exhaustions whatever the
#      scheduling. The chaos run itself stays clean, the explicitly
#      requested bundle must carry the incident, and lfrcdoctor — offline,
#      from the tarball alone — must reach the heap_exhaustion verdict with
#      exit 1;
#   3. a planted retry storm (core.load:p=0.85 forces the paper's §5 retry
#      window): the chaos run stays clean, the bundle must carry the storm,
#      and lfrcdoctor must surface the retry_storm finding.
# No fault plan is known to make chaos FAIL on the lfrc reclaimer, so the
# FAIL path's automatic capture is covered by tests, not planted here.
check-doctor:
	$(GO) test -count=1 ./internal/watchdog
	$(GO) test -race -count=1 -run 'TestWatchdog|TestBundle' .
	$(GO) test -count=1 ./cmd/lfrcdoctor
	@dir=$$(mktemp -d /tmp/lfrc-doctor-XXXXXX); \
	echo "check-doctor: heap exhaustion -> bundle -> lfrcdoctor"; \
	$(GO) run ./cmd/lfrcbench -fault-plan "mem.alloc:nth=$$(seq -s+ 201 300)" \
		-dur 500ms -workers 4 -bundle $$dir/oom.tar.gz >$$dir/oom.log 2>&1 || { echo "check-doctor: heap-exhaustion chaos run failed"; cat $$dir/oom.log; rm -rf $$dir; exit 1; }; \
	if $(GO) run ./cmd/lfrcdoctor -json $$dir/oom.tar.gz >$$dir/oom.json 2>&1; then \
		echo "check-doctor: lfrcdoctor called the exhausted bundle healthy"; cat $$dir/oom.json; rm -rf $$dir; exit 1; \
	fi; \
	grep -q '"rule": "heap_exhaustion"' $$dir/oom.json || { echo "check-doctor: no heap_exhaustion verdict"; cat $$dir/oom.json; rm -rf $$dir; exit 1; }; \
	grep -q '"reclaimer": "lfrc"' $$dir/oom.json || { echo "check-doctor: wrong reclaimer in verdict"; cat $$dir/oom.json; rm -rf $$dir; exit 1; }; \
	echo "check-doctor: retry storm -> bundle -> lfrcdoctor"; \
	$(GO) run ./cmd/lfrcbench -fault-plan 'core.load:p=0.85' \
		-dur 500ms -workers 4 -bundle $$dir/lfrc.tar.gz >$$dir/lfrc.log 2>&1 || { echo "check-doctor: retry-storm chaos run failed"; cat $$dir/lfrc.log; rm -rf $$dir; exit 1; }; \
	$(GO) run ./cmd/lfrcdoctor -json $$dir/lfrc.tar.gz >$$dir/lfrc.json 2>&1; \
	grep -q '"rule": "retry_storm"' $$dir/lfrc.json || { echo "check-doctor: no retry_storm finding"; cat $$dir/lfrc.json; rm -rf $$dir; exit 1; }; \
	grep -q '"reclaimer": "lfrc"' $$dir/lfrc.json || { echo "check-doctor: wrong reclaimer in verdict"; cat $$dir/lfrc.json; rm -rf $$dir; exit 1; }; \
	rm -rf $$dir; echo "check-doctor: PASS"

# Short fuzzing burst per fuzzer (seed corpora always run under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzDequeModel -fuzztime=30s ./internal/snark/
	$(GO) test -fuzz=FuzzSetModel -fuzztime=30s ./internal/dlist/
	$(GO) test -fuzz=FuzzEnginesAgree -fuzztime=30s ./internal/dcas/

# Reproduce every experiment table in EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/lfrcbench -engine both -scale 2 -dur 300ms

stress:
	$(GO) run ./cmd/snarkstress -dur 30s

# Deep schedule-space hunt (historical Snark races, LFRC safety): the Snark
# exploration tests with -deep run the default cell at 4 preemptions and up
# to 200k schedules per scenario, and the 3 other {engine} x {strategy}
# cells (4 in all) at the tier-1 budget.
explore:
	$(GO) test -count=1 -timeout 0 -v -run 'Test(SnarkMemorySafety|ClaimingDequeExact)UnderExploration' ./internal/explore -args -deep

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/workstealing
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/memshrink
	$(GO) run ./examples/membership

clean:
	$(GO) clean -testcache
