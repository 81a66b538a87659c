package fleet

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/gen"
	"rdfault/internal/retry"
	"rdfault/internal/serve"
)

// newPool starts n loopback workers and registers teardown.
func newPool(t *testing.T, n int) *LocalPool {
	t.Helper()
	pool, err := NewLocalPool(n, serve.Config{Workers: 1, MaxConeInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// testConfig wires a coordinator to the pool with fast, deterministic
// recovery policies.
func testConfig(pool *LocalPool, sliceMS int64) Config {
	tr := &HTTPTransport{Kill: func(addr string) { pool.Kill(addr) }}
	return Config{
		Transport:       tr,
		Workers:         pool.Addrs(),
		SliceMS:         sliceMS,
		EnumWorkers:     1,
		DispatchTimeout: 30 * time.Second,
		FailThreshold:   2,
		Backoff:         retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, NoJitter: true},
		Probe:           retry.Policy{Attempts: 3, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond, NoJitter: true},
		ProbeTimeout:    time.Second,
	}
}

// assertMatchesIdentify pins the fleet's merged counters to the
// single-process run — the tentpole invariant.
func assertMatchesIdentify(t *testing.T, res *Result, ref *core.Report) {
	t.Helper()
	if res.Total.Cmp(ref.TotalLogicalPaths) != 0 {
		t.Fatalf("merged total %s, single-process %s", res.Total, ref.TotalLogicalPaths)
	}
	if res.Selected != ref.Selected {
		t.Fatalf("merged selected %d, single-process %d", res.Selected, ref.Selected)
	}
	if res.RD.Cmp(ref.RD) != 0 {
		t.Fatalf("merged RD %s, single-process %s", res.RD, ref.RD)
	}
}

func TestFleetMatchesSingleProcessAcrossWorkerCounts(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	ref, err := core.Identify(c, core.Heuristic2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var segments []int64
	for _, n := range []int{1, 2, 4} {
		pool := newPool(t, n)
		res, err := Run(context.Background(), testConfig(pool, 0), c, core.Heuristic2)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		assertMatchesIdentify(t, res, ref)
		if res.Stats.Cones != len(c.Outputs()) {
			t.Fatalf("%d workers: %d cones, circuit has %d outputs", n, res.Stats.Cones, len(c.Outputs()))
		}
		segments = append(segments, res.Segments)
	}
	// Segments is the sharded work sum: bigger than the single-process
	// count (shared DFS prefixes are re-walked per cone) but identical
	// for every worker count.
	for i := 1; i < len(segments); i++ {
		if segments[i] != segments[0] {
			t.Fatalf("segments %v differ across worker counts", segments)
		}
	}
}

func TestFleetSliceStreamingPreservesCounters(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	ref, err := core.Identify(c, core.Heuristic2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, 2)
	res, err := Run(context.Background(), testConfig(pool, 5), c, core.Heuristic2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
}

func TestFleetHeuristicsAgreeWithSingleProcess(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	for _, h := range []core.Heuristic{core.HeuristicFUS, core.Heuristic1, core.HeuristicPinOrder} {
		ref, err := core.Identify(c, h, core.Options{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		pool := newPool(t, 2)
		res, err := Run(context.Background(), testConfig(pool, 0), c, h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		assertMatchesIdentify(t, res, ref)
	}
}

// A smoke check that also pins the event log's shape: a clean run logs
// exactly one dispatch per group (one group per worker) and one
// completion per cone.
func TestFleetCleanRunEventLog(t *testing.T) {
	for _, tc := range []struct {
		c       *circuit.Circuit
		workers int
	}{{gen.PaperExample(), 1}, {gen.RippleAdder(4, gen.XorNAND), 2}} {
		c := tc.c
		pool := newPool(t, tc.workers)
		res, err := Run(context.Background(), testConfig(pool, 0), c, core.Heuristic2)
		if err != nil {
			t.Fatal(err)
		}
		var dispatches, completes int
		for _, ev := range res.Events {
			switch ev.Kind {
			case EvDispatch:
				dispatches++
			case EvComplete:
				completes++
			}
		}
		cones, groups := len(c.Outputs()), min(tc.workers, len(c.Outputs()))
		if dispatches != groups || completes != cones || res.Stats.Dispatches != int64(groups) {
			t.Fatalf("%s: clean run logged %d dispatches (stats %d), %d completions; want %d and %d",
				c.Name(), dispatches, res.Stats.Dispatches, completes, groups, cones)
		}
		if res.Stats.Failures != 0 || res.Stats.DeadWorkers != 0 || res.Stats.ZombieDiscards != 0 {
			t.Fatalf("clean run reported faults: %+v", res.Stats)
		}
	}
}

// Cones() and the per-cone dispatch must cover every output exactly
// once, in deterministic order.
func TestFleetPerConeOrderIsOutputsOrder(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, 2)
	res, err := Run(context.Background(), testConfig(pool, 0), c, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}
	outs := c.Outputs()
	if len(res.PerCone) != len(outs) {
		t.Fatalf("%d per-cone results for %d outputs", len(res.PerCone), len(outs))
	}
	for i, pc := range res.PerCone {
		cone, _, err := c.Cone(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if pc.Name != cone.Name() {
			t.Fatalf("per-cone[%d] is %q, want %q", i, pc.Name, cone.Name())
		}
	}
}

func TestFleetNoWorkersConfigured(t *testing.T) {
	if _, err := Run(context.Background(), Config{Transport: &HTTPTransport{}}, gen.PaperExample(), core.Heuristic1); err == nil {
		t.Fatal("Run accepted an empty worker list")
	}
}

// The coordinator releases the analysis it builds for the circuit, and
// every worker the analysis of each netlist it parses, so a stream of
// jobs does not fill the analysis registry.
func TestFleetRunReleasesAnalysis(t *testing.T) {
	pool := newPool(t, 2)
	before := analysis.Len()
	for i := 0; i < 20; i++ {
		if _, err := Run(context.Background(), testConfig(pool, 0), gen.RippleAdder(4, gen.XorNAND), core.Heuristic1); err != nil {
			t.Fatal(err)
		}
	}
	if after := analysis.Len(); after != before {
		t.Fatalf("analysis registry holds %d circuits after 20 runs, %d before", after, before)
	}
}

// A clean journaled job appends its admission, one lease append and one
// answer append per group, and its seal: 2·groups + 2 appends (each one
// write and one fsync) for 2·cones + 2 records.
func TestFleetJournalAppendsPerGroup(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	cones := len(c.Outputs())
	for _, workers := range []int{1, 2, 4} {
		pool := newPool(t, workers)
		cfg := testConfig(pool, 0)
		path := filepath.Join(t.TempDir(), "job.journal")
		jw, err := journal.Create(path, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = jw
		plan := faultinject.NewPlan(faultinject.Rule{
			Point: faultinject.PointCoordJournalLatency, Kind: faultinject.KindSleep, // zero delay: counts appends
		})
		restore := faultinject.Activate(plan)
		_, err = Run(context.Background(), cfg, c, core.Heuristic1)
		restore()
		jw.Close()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := journal.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		groups := min(workers, cones)
		if got := plan.Fired(faultinject.PointCoordJournalLatency); got != uint64(2*groups+2) || len(recs) != 2*cones+2 {
			t.Fatalf("%d workers: %d appends of %d records, want %d appends of %d",
				workers, got, len(recs), 2*groups+2, 2*cones+2)
		}
	}
}
