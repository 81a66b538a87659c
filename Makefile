# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet bench bench-identify bench-compare bench-smoke race chaos chaos-fleet chaos-coord metrics-smoke eco-smoke fuzz crosscheck cover suite clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent packages (work-stealing
# enumeration, the implication engine it snapshots, the shared analysis
# manager, the two-pattern test generator, and the oracle/differential
# harness that drives parallel fast passes).
race:
	$(GO) test -race ./internal/core ./internal/logic ./internal/analysis \
		./internal/tgen ./internal/oracle ./internal/oracle/diff \
		./internal/serve ./internal/faultinject ./internal/cliutil \
		./internal/fleet ./internal/fleet/journal ./internal/retry \
		./internal/telemetry ./internal/store

# The deterministic fault-injection suite under the race detector:
# admission failures, worker panics, budget evictions mid-run, spill
# corruption, clock skew — every injected fault must map to a typed
# error or a correctly-labeled degraded tier, never a wrong answer.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject ./internal/serve \
		./internal/cliutil ./internal/store -run 'Test'

# The killed-node chaos suite: worker kills, dropped dispatches,
# corrupted responses, zombie replies and checkpoint migration injected
# into the fleet coordinator, with merged counters required to stay
# bit-identical to a single-process run under every schedule.
chaos-fleet:
	$(GO) test -race -count=1 ./internal/fleet ./internal/retry -run 'Test'

# The coordinator-kill chaos suite: the coordinator itself is killed at
# every phase boundary (pre-sort, mid-dispatch, mid-merge, pre-seal),
# recovered by restart or hot-standby promotion at 2 and 4 workers, with
# merged counters required to stay bit-identical, every answer merged
# exactly once (journaled lease audit), zombie primaries fenced typed,
# and injected journal corruption degrading to a correct recompute.
chaos-coord:
	$(GO) test -race -count=1 ./internal/fleet \
		-run 'TestChaosCoord|TestResume|TestZombieCoordinator|TestJournalAppend'

# The observability contract, end to end: metric counters must agree
# with the structured event log one-for-one (submissions, sheds, budget
# evictions), the event stream must be byte-deterministic under the
# frozen faultinject clock, a fleet chaos run's quarantine/dead counters
# must match its JSONL stream, and a surviving worker's /metrics page
# must account for the cone slices actually served.
metrics-smoke:
	$(GO) test -race -count=1 ./internal/telemetry
	$(GO) test -race -count=1 ./internal/serve \
		-run 'TestMetricsEventConsistency|TestEventLogByteDeterministic|TestStream'
	$(GO) test -race -count=1 ./internal/fleet \
		-run 'TestChaosTelemetryStreamMatchesEventsAndStats'

# The ECO-workload gate: the content-addressed result store must serve
# a repeat submission of every suite circuit as a pure hit with counters
# bit-identical to the cold run and zero enumeration work, k-of-n-cone
# edits as deltas that re-enumerate only the changed cones, survive a
# process restart, and degrade corrupt/unreadable entries to correct
# recomputation — through the direct, serving and fleet paths alike.
# The store serves its fresh cones from one output-restricted walk, so
# that walk is pinned first to the per-cone walks it replaces.
eco-smoke:
	$(GO) test -race -count=1 ./internal/core -run 'TestEnumerateCones'
	$(GO) test -race -count=1 ./internal/store \
		-run 'TestECO|TestStoreSurvivesRestart|TestStoreMatchesWholeCircuitRun'
	$(GO) test -race -count=1 ./internal/serve -run 'TestServeStore|TestServeNoStore'
	$(GO) test -race -count=1 ./internal/fleet -run 'TestFleetStore|TestFleetReuses|TestFleetECO'

# Cached-vs-uncached identification pipeline; writes BENCH_identify.json
# and fails if the analysis manager is not strictly faster and
# lower-allocating than the recompute-everywhere baseline.
bench-identify:
	$(GO) test -run '^$$' -bench BenchmarkIdentifyCached -benchtime 1x -timeout 30m .

# Perf-regression gate: regenerate the identification artifact and fail
# if any circuit's speedup or paths/sec throughput regressed beyond
# tolerance against the committed baseline (readable in any artifact
# version, including the pre-envelope format). The committed file is
# stashed first because bench-identify overwrites it in place.
bench-compare:
	cp BENCH_identify.json BENCH_identify.baseline.json
	$(MAKE) bench-identify; status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/benchcompare -baseline BENCH_identify.baseline.json -current BENCH_identify.json; \
		status=$$?; \
	fi; \
	rm -f BENCH_identify.baseline.json; exit $$status

# Smoke test of the end-to-end benchmark: every rdbench workload on a
# tiny job list with every answer checked. rdbench is a module of its
# own, so the root's `go test ./...` does not reach it.
bench-smoke:
	cd rdbench && $(GO) test ./...

# Regenerates every table and figure of the paper (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem -timeout 30m .

# Short fuzz pass over the three netlist parsers, the differential
# oracle harness and the implication engine (flat vs reference, and
# cone-bounded vs reference).
fuzz:
	$(GO) test ./internal/circuit -run=NONE -fuzz FuzzParseBench -fuzztime 30s
	$(GO) test ./internal/store -run=NONE -fuzz FuzzECODelta -fuzztime 30s
	$(GO) test ./internal/fleet/journal -run=NONE -fuzz FuzzJournalReplay -fuzztime 30s
	$(GO) test ./internal/verilog -run=NONE -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/pla -run=NONE -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/oracle/diff -run=NONE -fuzz FuzzCrossCheck -fuzztime 30s
	$(GO) test ./internal/logic -run=NONE -fuzz FuzzEngineDiff -fuzztime 30s
	$(GO) test ./internal/logic -run=NONE -fuzz FuzzEngineBoundedDiff -fuzztime 30s

# The seeded differential sweep: 64 random circuits through the fast
# identifier and the exact oracle, checking soundness, Lemma 1
# containment and metamorphic stability, and requiring at least one seed
# with a nonzero approximation gap (exit 1 otherwise).
crosscheck:
	$(GO) run ./cmd/crosscheck -seeds 64

cover:
	$(GO) test -cover ./...

# Materialize the generated benchmark suites.
suite:
	$(GO) run ./cmd/benchgen -out benchmarks -verilog -multiplier

clean:
	rm -rf benchmarks out.vcd BENCH_enumerate.json BENCH_identify.json
