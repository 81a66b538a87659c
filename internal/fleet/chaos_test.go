// The killed-node chaos suite. The bar, per the design: for ANY worker
// count and ANY schedule of kills, dropped dispatches, delayed replies
// and corrupted responses, the merged counters are bit-identical to a
// clean single-process run — chaos may cost retries and time, never a
// digit.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/gen"
	"rdfault/internal/serve"
)

// chaosRun arms rules, runs the fleet over a fresh pool, and returns
// the result plus the plan (for Fired assertions) and the pool.
func chaosRun(t *testing.T, workers int, mut func(*Config), h core.Heuristic, rules ...faultinject.Rule) (*Result, *faultinject.Plan, *LocalPool, error) {
	t.Helper()
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, workers)
	cfg := testConfig(pool, 5)
	if mut != nil {
		mut(&cfg)
	}
	plan := faultinject.NewPlan(rules...)
	restore := faultinject.Activate(plan)
	defer restore()
	res, err := Run(context.Background(), cfg, c, h)
	return res, plan, pool, err
}

// chaosRef is the clean single-process reference for the chaos circuit.
func chaosRef(t *testing.T) *core.Report {
	t.Helper()
	ref, err := core.Identify(gen.RippleAdder(4, gen.XorNAND), core.Heuristic2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// The sweep: every fault schedule crossed with 2- and 4-worker pools,
// all merged counters (Segments included) bit-identical to the clean
// 1-worker sharded run and to the single-process Identify.
func TestChaosScheduleSweepKeepsCountersBitIdentical(t *testing.T) {
	ref := chaosRef(t)
	clean, _, _, err := chaosRun(t, 1, nil, core.Heuristic2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, clean, ref)

	schedules := []struct {
		name string
		mut  func(*Config)
		// minWorkers skips pools too small to survive the schedule's
		// kills (killing the whole pool is ErrNoWorkers by design,
		// covered by its own test below).
		minWorkers int
		rules      []faultinject.Rule
	}{
		{
			name: "kill-one-worker",
			rules: []faultinject.Rule{
				{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError, Hit: 2, Count: 1},
			},
		},
		{
			name:       "kill-two-workers",
			minWorkers: 3,
			rules: []faultinject.Rule{
				{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError, Hit: 2, Count: 1},
				{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError, Hit: 4, Count: 1},
			},
		},
		{
			name: "dropped-dispatches",
			rules: []faultinject.Rule{
				{Point: faultinject.PointFleetDispatch, Kind: faultinject.KindError, Count: 3},
			},
		},
		{
			name: "corrupt-responses",
			rules: []faultinject.Rule{
				{Point: faultinject.PointFleetResponseCorrupt, Kind: faultinject.KindCorrupt, Count: 2, Seed: 99},
			},
		},
		{
			name: "zombie-latency",
			mut:  func(c *Config) { c.DispatchTimeout = 150 * time.Millisecond },
			rules: []faultinject.Rule{
				{Point: faultinject.PointFleetLatency, Kind: faultinject.KindSleep, Delay: 600 * time.Millisecond, Hit: 2, Count: 1},
			},
		},
		{
			// The first two dispatches are dropped and the third kills its
			// worker, so the first response that arrives is the fourth
			// dispatch's: it is corrupted, and the next one is late.
			name: "mixed-everything",
			mut:  func(c *Config) { c.DispatchTimeout = 200 * time.Millisecond },
			rules: []faultinject.Rule{
				{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError, Hit: 3, Count: 1},
				{Point: faultinject.PointFleetDispatch, Kind: faultinject.KindError, Count: 2},
				{Point: faultinject.PointFleetResponseCorrupt, Kind: faultinject.KindCorrupt, Hit: 1, Count: 1, Seed: 7},
				{Point: faultinject.PointFleetLatency, Kind: faultinject.KindSleep, Delay: 700 * time.Millisecond, Hit: 2, Count: 1},
			},
		},
	}
	for _, sc := range schedules {
		for _, workers := range []int{2, 4} {
			if workers < sc.minWorkers {
				continue
			}
			t.Run(fmt.Sprintf("%s/%dw", sc.name, workers), func(t *testing.T) {
				res, plan, _, err := chaosRun(t, workers, sc.mut, core.Heuristic2, sc.rules...)
				if err != nil {
					t.Fatalf("fleet run failed under chaos: %v", err)
				}
				for _, r := range sc.rules {
					if plan.Fired(r.Point) == 0 {
						t.Fatalf("no rule fired at %s; the schedule tested nothing", r.Point)
					}
				}
				assertMatchesIdentify(t, res, ref)
				if res.Segments != clean.Segments {
					t.Fatalf("segments %d, clean sharded run %d", res.Segments, clean.Segments)
				}
			})
		}
	}
}

// A killed worker must be discovered, quarantined, probed and declared
// dead — and its cones reclaimed and finished by the survivors.
func TestChaosKilledWorkerIsReclaimedAndDeclaredDead(t *testing.T) {
	ref := chaosRef(t)
	// FailThreshold 1: the killed worker's very first failed dispatch
	// trips its breaker, so quarantine/probe/dead happen even if the
	// survivor drains the remaining cones quickly.
	res, _, pool, err := chaosRun(t, 2,
		func(c *Config) { c.FailThreshold = 1 },
		core.Heuristic2,
		faultinject.Rule{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError, Hit: 2, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	if pool.Killed() != 1 {
		t.Fatalf("%d workers killed, want 1", pool.Killed())
	}
	if res.Stats.DeadWorkers != 1 {
		t.Fatalf("stats counted %d dead workers, want 1 (stats %+v)", res.Stats.DeadWorkers, res.Stats)
	}
	var sawQuarantine, sawDead bool
	for _, ev := range res.Events {
		switch ev.Kind {
		case EvQuarantine:
			sawQuarantine = true
		case EvDead:
			sawDead = true
		}
	}
	if !sawQuarantine || !sawDead {
		t.Fatalf("event log missing quarantine/dead entries (quarantine=%v dead=%v)", sawQuarantine, sawDead)
	}
}

// An abandoned dispatch's late reply is discarded by epoch — the stats
// must show the abandonment AND the discarded zombie, with the counters
// untouched.
func TestChaosZombieReplyIsDiscarded(t *testing.T) {
	ref := chaosRef(t)
	res, plan, _, err := chaosRun(t, 2,
		func(c *Config) { c.DispatchTimeout = 120 * time.Millisecond },
		core.Heuristic2,
		faultinject.Rule{Point: faultinject.PointFleetLatency, Kind: faultinject.KindSleep, Delay: 500 * time.Millisecond, Hit: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fired(faultinject.PointFleetLatency) == 0 {
		t.Fatal("latency rule never fired")
	}
	if res.Stats.Abandoned < 1 || res.Stats.ZombieDiscards < 1 {
		t.Fatalf("abandoned=%d zombies=%d, want at least 1 each", res.Stats.Abandoned, res.Stats.ZombieDiscards)
	}
	assertMatchesIdentify(t, res, ref)
}

// Corrupted response bytes must be caught by parse/checksum and
// retried; a corrupt answer must never reach the merge.
func TestChaosCorruptResponsesAreRetriedNotMerged(t *testing.T) {
	ref := chaosRef(t)
	res, plan, _, err := chaosRun(t, 2, nil, core.Heuristic2,
		faultinject.Rule{Point: faultinject.PointFleetResponseCorrupt, Kind: faultinject.KindCorrupt, Count: 3, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Fired(faultinject.PointFleetResponseCorrupt); got < 3 {
		t.Fatalf("corrupt rule fired %d times, want 3", got)
	}
	if res.Stats.Failures < 3 {
		t.Fatalf("only %d failures counted for 3 corrupted responses", res.Stats.Failures)
	}
	assertMatchesIdentify(t, res, ref)
}

// Every worker dead with cones pending fails typed, not hanging.
func TestChaosAllWorkersDeadFailsTyped(t *testing.T) {
	_, _, pool, err := chaosRun(t, 2, nil, core.Heuristic2,
		faultinject.Rule{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if pool.Killed() != 2 {
		t.Fatalf("%d workers killed, want 2", pool.Killed())
	}
}

// The failover primitive, isolated: a group's slice chain started on
// worker A and finished on worker B (checkpoint migration) must produce
// exactly the counters of the whole chain run on B alone, cone by cone.
func TestChaosCheckpointMigratesAcrossWorkers(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	sort, err := core.HeuristicSort(context.Background(), c, core.Heuristic2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Outputs())
	req := serve.ConeRequest{
		Bench:     benchOf(t, c),
		Name:      c.Name(),
		Outputs:   []int{n - 1, 1, n - 3}, // the widest cone and two others
		Criterion: "sigma^pi",
		Sort:      sort.ByName(c),
		Workers:   1,
	}

	pool := newPool(t, 2)
	tr := &HTTPTransport{}
	a, b := pool.Addrs()[0], pool.Addrs()[1]
	ctx := context.Background()

	oneShot, err := tr.Dispatch(ctx, b, req)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Status != "complete" {
		t.Fatalf("one-shot run ended %q", oneShot.Status)
	}

	// Slow the enumeration so slices on A expire and stream checkpoints.
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointWorker, Kind: faultinject.KindSleep, Delay: time.Millisecond,
	})
	restore := faultinject.Activate(plan)
	sliced := req
	sliced.SliceMS = 5
	var migrated *serve.ConeAnswer
	hops := 0
	onA := true
	for {
		hops++
		if hops > 500 {
			t.Fatal("slice chain made no progress")
		}
		worker := a
		if !onA {
			worker = b
		}
		ans, err := tr.Dispatch(ctx, worker, sliced)
		if err != nil {
			t.Fatalf("hop %d on %s: %v", hops, worker, err)
		}
		if ans.Status == "complete" {
			migrated = ans
			break
		}
		if len(ans.Checkpoint) == 0 {
			t.Fatalf("hop %d interrupted without checkpoint", hops)
		}
		sliced.Checkpoint = ans.Checkpoint
		if hops >= 2 {
			onA = false // migrate: every later slice runs on B
		}
	}
	restore()
	if onA {
		t.Fatal("chain completed before migrating; nothing was tested")
	}
	for i, got := range append([]*serve.ConeAnswer{migrated}, migrated.Cones...) {
		want := oneShot
		if i > 0 {
			want = oneShot.Cones[i-1]
		}
		if got.TotalPaths != want.TotalPaths || got.Selected != want.Selected ||
			got.RD != want.RD || got.Segments != want.Segments || got.Pruned != want.Pruned {
			t.Fatalf("answer %d: migrated chain total=%s selected=%d rd=%s segments=%d; one-shot total=%s selected=%d rd=%s segments=%d",
				i, got.TotalPaths, got.Selected, got.RD, got.Segments,
				want.TotalPaths, want.Selected, want.RD, want.Segments)
		}
	}
	if len(migrated.Cones) != len(req.Outputs) {
		t.Fatalf("%d cone answers for %d outputs", len(migrated.Cones), len(req.Outputs))
	}
}

// benchOf serializes a netlist for a wire dispatch.
func benchOf(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var b strings.Builder
	if err := circuit.WriteBench(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// dispatchLog records every dispatch a run makes over an HTTP transport
// whose kill hook it owns: which worker, which cones, whether it carried
// a checkpoint, whether the hook killed its worker, and how it ended. A
// worker loop has one dispatch in flight at a time, so a kill of the
// destination during a call belongs to that call.
type dispatchLog struct {
	inner *HTTPTransport

	mu    sync.Mutex
	kills map[string]int
	recs  []dispatchRec
}

func newDispatchLog(pool *LocalPool) *dispatchLog {
	l := &dispatchLog{kills: map[string]int{}}
	l.inner = &HTTPTransport{Kill: func(addr string) {
		l.mu.Lock()
		l.kills[addr]++
		l.mu.Unlock()
		pool.Kill(addr)
	}}
	return l
}

type dispatchRec struct {
	worker, outputs string
	checkpoint      bool
	killed          bool // this dispatch's worker was killed on the way
	status          string
}

func (l *dispatchLog) Dispatch(ctx context.Context, worker string, req serve.ConeRequest) (*serve.ConeAnswer, error) {
	l.mu.Lock()
	kills := l.kills[worker]
	l.mu.Unlock()
	ans, err := l.inner.Dispatch(ctx, worker, req)
	rec := dispatchRec{worker: worker, outputs: fmt.Sprint(req.Outputs), checkpoint: len(req.Checkpoint) > 0, status: "error"}
	if err == nil {
		rec.status = ans.Status
	}
	l.mu.Lock()
	rec.killed = l.kills[worker] > kills
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
	return ans, err
}

func (l *dispatchLog) Healthz(ctx context.Context, worker string) error {
	return l.inner.Healthz(ctx, worker)
}

// A worker killed mid-group: both groups have streamed a checkpoint when
// the third dispatch kills its worker, and the group it carried resumes
// from that checkpoint on the survivor — no restart, counters equal to
// the single-process run.
func TestChaosKilledWorkerMidGroupMigratesCheckpoint(t *testing.T) {
	ref := chaosRef(t)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	log := newDispatchLog(pool)
	cfg.Transport = log
	plan := faultinject.NewPlan(
		// Slow every walk task so 5 ms slices expire inside the groups.
		faultinject.Rule{Point: faultinject.PointWorker, Kind: faultinject.KindSleep, Delay: time.Millisecond},
		faultinject.Rule{Point: faultinject.PointFleetWorkerKill, Kind: faultinject.KindError, Hit: 3, Count: 1},
	)
	restore := faultinject.Activate(plan)
	res, err := Run(context.Background(), cfg, gen.RippleAdder(4, gen.XorNAND), core.Heuristic2)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fired(faultinject.PointFleetWorkerKill) != 1 || pool.Killed() != 1 {
		t.Fatalf("kill fired %d times, %d workers killed", plan.Fired(faultinject.PointFleetWorkerKill), pool.Killed())
	}
	assertMatchesIdentify(t, res, ref)
	if res.Stats.Restarts != 0 || res.Stats.Slices == 0 {
		t.Fatalf("stats %+v: want streamed slices and no restart", res.Stats)
	}
	clean, _, _, err := chaosRun(t, 1, nil, core.Heuristic2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != clean.Segments {
		t.Fatalf("segments %d, clean run %d", res.Segments, clean.Segments)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	kill := -1
	for i, r := range log.recs {
		if r.killed {
			kill = i
		}
	}
	if kill < 0 || !log.recs[kill].checkpoint || log.recs[kill].status != "error" {
		t.Fatalf("the killing dispatch %d carried no checkpoint or did not fail: %+v", kill, log.recs)
	}
	victim := log.recs[kill]
	for _, r := range log.recs[kill+1:] {
		if r.outputs == victim.outputs && r.worker != victim.worker && r.checkpoint && r.status != "error" {
			return // the group's checkpoint moved to the survivor
		}
	}
	t.Fatalf("group %s never resumed its checkpoint on another worker: %+v", victim.outputs, log.recs)
}
