package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/faultinject"
	"rdfault/internal/logic"
	"rdfault/internal/paths"
	"rdfault/internal/satsolver"
)

// Options tunes Enumerate.
type Options struct {
	// Sort is the input sort π; required for the SigmaPi criterion,
	// ignored otherwise.
	Sort *circuit.InputSort
	// CollectLeadCounts enables the per-lead tallies |set_c^sup(l)| used
	// by Algorithm 3 (Heuristic 2).
	CollectLeadCounts bool
	// OnPath, when non-nil, receives every surviving logical path. The
	// Path buffer is shared; Clone to retain. With Workers > 1 the
	// callback is serialized by a mutex but arrival order is
	// nondeterministic (the delivered path *set* is not).
	OnPath func(paths.Logical)
	// Limit aborts enumeration after this many surviving paths
	// (0 = unlimited); the result is then marked StatusTruncated and RD
	// is nil (the true RD count is unknown for a truncated walk). With
	// Workers > 1 the budget is a shared atomic counter with
	// stop-at-limit semantics: exactly Limit paths are counted and
	// delivered, but *which* paths make the cut — and the Segments/Pruned
	// tallies of a truncated run — depend on the schedule.
	Limit int64
	// NoPrune disables prime-segment pruning: conditions are still
	// accumulated, but contradictions no longer cut the DFS — every
	// logical path is visited and classified individually. Ablation knob;
	// the selected set is identical.
	NoPrune bool
	// Exact verifies every locally-surviving path with a SAT query over
	// the full circuit, turning the superset into the exact set (the
	// quality bound of the paper's approximation, measurable on circuits
	// far beyond exhaustive input enumeration). Much slower.
	Exact bool
	// Workers sets the number of enumeration goroutines (0 or 1 =
	// serial). Work is balanced by stealing: busy walkers split their DFS
	// frontier whenever idle workers exist, exporting untaken branches
	// (path prefix + implication-engine snapshot) as tasks, so a single
	// dominant fan-out cone no longer serializes the run. All counts
	// (Selected, RD, Segments, Pruned, LeadCounts) are deterministic and
	// schedule-independent for complete runs; OnPath ordering is not.
	Workers int

	// Context, when non-nil, makes the run cancellable: walkers observe
	// cancellation at branch-extension granularity, stop cleanly, and
	// serialize their untaken DFS frontier into Result.Checkpoint so the
	// walk can resume later. Cancellation is graceful, not an error:
	// Enumerate still returns a Result carrying the partial counters.
	Context context.Context
	// Deadline, when positive, bounds the run's wall-clock time (layered
	// on top of Context if both are set). Expiry behaves exactly like a
	// context deadline: StatusDeadline plus a resumable checkpoint.
	Deadline time.Duration
	// Checkpoint resumes an interrupted run: the walk covers exactly the
	// frontier recorded at interruption and the counters continue from
	// the checkpoint's baseline, so a resumed run's final counters are
	// bit-identical to an uninterrupted run for any worker count. The
	// checkpoint must come from the same circuit, criterion and sort
	// (fingerprint-checked). Note that OnPath only sees the resumed
	// frontier's paths — paths delivered before the interruption are not
	// replayed.
	Checkpoint *Checkpoint
	// Progress, when non-nil, receives live counter snapshots: walkers
	// publish their plain counters into per-worker shards at task
	// boundaries and every pollEvery cancellation checks (piggybacking
	// on the existing poll cadence — the DFS inner loop gains no atomics
	// and no allocations), and Tracker.Snapshot folds the shards on
	// read. When the run ends the tracker freezes on the exact Result
	// counters. One tracker serves a chain of runs (checkpoint resume,
	// the serve ladder): each Enumerate call rebases it.
	Progress *Tracker

	// onPrune receives every pruned prime segment (set via
	// CollectRDSegments; forces serial execution). Buffers are shared.
	onPrune func(gates []circuit.GateID, pins []int, finalOne bool)
}

// Result reports one enumeration pass.
type Result struct {
	Criterion Criterion
	// Status classifies how the run ended; see the Status constants.
	// Counters below are exact for StatusComplete, partial-but-sound
	// baselines for interrupted runs, and unreliable for StatusDegraded.
	Status Status
	// Total is the number of logical paths in the circuit (exact count).
	Total *big.Int
	// Selected is the number of logical paths surviving the criterion:
	// |FS^sup|, |LP^sup(σ^π)| or |T^sup| (the exact sets when
	// Options.Exact is on).
	Selected int64
	// RD is Total - Selected: for SigmaPi this is |RD^sub(σ^π)|, the
	// identified robust dependent set; for FS it is the number of
	// functionally unsensitizable paths (the FUS column of Table I).
	// RD is nil unless Status is StatusComplete: a truncated or
	// interrupted walk proves nothing about the paths it never visited.
	RD *big.Int
	// LeadCounts[i] counts, for the lead with dense index i, the selected
	// logical paths through it whose transition at the lead ends on the
	// controlling value of the gate it feeds (|set_c^sup(l)|). Nil unless
	// requested.
	LeadCounts []int64
	// Segments counts DFS edge extensions; Pruned counts extensions cut
	// by a local-implication contradiction; SATRejects counts paths the
	// exact check eliminated beyond local implications.
	Segments   int64
	Pruned     int64
	SATRejects int64
	// Complete is true iff Status is StatusComplete (kept for callers of
	// the pre-Status API).
	Complete bool
	// Checkpoint holds the serialized untaken frontier when the run was
	// interrupted (StatusDeadline or StatusCanceled); pass it back via
	// Options.Checkpoint to finish the walk. Nil otherwise.
	Checkpoint *Checkpoint
	// WorkerErrors carries one crash report per panicked worker when
	// Status is StatusDegraded.
	WorkerErrors []*WorkerError
	// Err is the run's terminal condition: nil for StatusComplete and
	// StatusTruncated, ErrDeadline / ErrCanceled for interruptions, and
	// the joined WorkerErrors (matching ErrWorkerPanic) for
	// StatusDegraded. The Result is still populated in every case —
	// graceful degradation, not failure.
	Err      error
	Duration time.Duration
}

// RDPercent returns 100*RD/Total as a float; 0 for an empty circuit or
// an incomplete result (RD unknown).
func (r *Result) RDPercent() float64 { return RDPercent(r.RD, r.Total) }

// counters extracts the result's tallies as a checkpoint baseline.
func (r *Result) counters() CheckpointCounters {
	return CheckpointCounters{
		Selected:   r.Selected,
		Segments:   r.Segments,
		Pruned:     r.Pruned,
		SATRejects: r.SATRejects,
		LeadCounts: append([]int64(nil), r.LeadCounts...),
	}
}

// minSplitSuffixes is the work-stealing granularity floor: a DFS branch
// is exported only if at least this many PI-to-PO suffixes hang under it,
// so task overhead (snapshot + scheduler lock) stays far below the
// subtree's enumeration cost.
const minSplitSuffixes = 32

// shared is the cross-walker state of one parallel Enumerate run.
type shared struct {
	sched *scheduler
	// splitOK marks gates whose DFS subtree is big enough to export
	// (precomputed from exact path counts, so the decision is free).
	splitOK []bool
	// limit/selected implement the shared atomic path budget.
	limit    int64
	selected atomic.Int64
}

// frontier collects the un-walked DFS branches of a canceled run; they
// become the checkpoint. Only touched after cancellation, so the mutex
// is uncontended on the hot path.
type frontier struct {
	mu    sync.Mutex
	tasks []task
}

func (f *frontier) add(ts ...task) {
	f.mu.Lock()
	f.tasks = append(f.tasks, ts...)
	f.mu.Unlock()
}

// workerErrors accumulates panic reports across workers.
type workerErrors struct {
	mu   sync.Mutex
	errs []*WorkerError
}

func (we *workerErrors) add(e *WorkerError) {
	we.mu.Lock()
	we.errs = append(we.errs, e)
	we.mu.Unlock()
}

// walker is the per-goroutine enumeration state.
type walker struct {
	c    *circuit.Circuit
	cr   Criterion
	opt  *Options
	eng  *logic.Engine
	sat  *satsolver.Solver
	vars satsolver.CircuitVars
	sh   *shared // nil for serial runs
	wid  int

	// cancel is the run's cancellation flag (set when the context is
	// done); fr receives this walker's untaken frontier on cancellation.
	cancel *atomic.Bool
	fr     *frontier
	// ctx and deadline are polled directly every pollEvery cancellation
	// checks: on a single-CPU box neither the watcher goroutine nor the
	// context's own timer may run while walkers spin in the CPU-bound DFS
	// (Go preempts only after ~10ms), so the flag alone would miss
	// deadlines shorter than the walk — and ctx.Err() stays nil until the
	// starved timer fires, hence the explicit clock comparison.
	ctx      context.Context
	deadline time.Time
	pollTick uint

	gateBuf []circuit.GateID
	pinBuf  []int
	valBuf  []bool
	sideBuf []int
	assume  []satsolver.Lit

	selected   int64
	segments   int64
	pruned     int64
	satRejects int64
	leadCounts []int64
	onPath     func(paths.Logical)
	limit      int64 // serial-mode budget; parallel uses shared.selected
	stopped    bool
	prog       *progressShard // live-progress slot; nil when untracked

	// within is the output-bucket mask implication is bounded to on top
	// of each path gate's own cones: all ones, except in an
	// output-restricted walk (EnumerateCones), which also sets want and
	// tally. want[g] marks the gates that reach a requested output; the
	// walk never leaves them. tally[g] is gate g's share of the walk.
	within uint64
	want   []bool
	tally  []coneTally
}

// coneTally counts, for one gate g of an output-restricted walk, the
// extensions into g, the extensions pruned at g and, when g is an
// output, the selected paths ending at g.
type coneTally struct{ segments, pruned, selected int64 }

func newWalker(an *analysis.Analysis, cr Criterion, opt *Options, onPath func(paths.Logical)) *walker {
	c := an.Circuit()
	w := &walker{
		c:      c,
		cr:     cr,
		opt:    opt,
		eng:    an.Engine(),
		onPath: onPath,
		limit:  opt.Limit,
		within: ^uint64(0),
	}
	if opt.CollectLeadCounts {
		w.leadCounts = make([]int64, c.NumLeads())
	}
	if opt.Exact {
		w.sat = satsolver.New()
		w.vars = satsolver.AddCircuit(w.sat, c)
	}
	if opt.Progress != nil {
		w.prog = opt.Progress.newShard()
	}
	return w
}

// pollEvery is how many cancellation checks pass between direct context
// polls; at roughly a microsecond per extension this bounds the
// detection latency near a millisecond even when the watcher goroutine
// is starved.
const pollEvery = 1024

// canceled reports whether the run's context fired: the watcher's flag
// first (one atomic load), with a periodic direct ctx.Err() poll as the
// scheduling-independent fallback.
func (w *walker) canceled() bool {
	if w.cancel == nil {
		return false
	}
	if w.cancel.Load() {
		return true
	}
	if w.ctx != nil {
		w.pollTick++
		if w.pollTick%pollEvery == 0 {
			// Piggyback live-progress publication on the poll cadence: one
			// branch and four atomic stores per pollEvery extensions.
			w.publish()
			if w.ctx.Err() != nil || (!w.deadline.IsZero() && !time.Now().Before(w.deadline)) {
				w.cancel.Store(true)
				return true
			}
		}
	}
	return false
}

// saveBranch checkpoints a single untaken branch: the current engine
// state and path prefix plus the edge that was about to be extended.
func (w *walker) saveBranch(e circuit.Edge) {
	w.fr.add(task{
		snap:  w.eng.Snapshot(),
		gates: append([]circuit.GateID(nil), w.gateBuf...),
		pins:  append([]int(nil), w.pinBuf...),
		vals:  append([]bool(nil), w.valBuf...),
		edge:  e,
	})
}

// saveSiblings checkpoints the untaken branches fanout[from:] of the
// current DFS node (skipping branches already exported to the scheduler,
// which the canceled worker loop drains into the frontier separately).
// The snapshot and prefix copies are shared across the sibling tasks.
func (w *walker) saveSiblings(fanout []circuit.Edge, from int, exporting bool) {
	var ts []task
	for _, e := range fanout[from:] {
		if exporting && w.sh != nil && w.sh.splitOK[e.To] {
			continue // handed to the scheduler by export
		}
		if w.want != nil && !w.want[e.To] {
			continue // reaches no requested output; dfs skips it too
		}
		if ts == nil {
			base := task{
				snap:  w.eng.Snapshot(),
				gates: append([]circuit.GateID(nil), w.gateBuf...),
				pins:  append([]int(nil), w.pinBuf...),
				vals:  append([]bool(nil), w.valBuf...),
				edge:  e,
			}
			ts = append(ts, base)
			continue
		}
		t := ts[0]
		t.edge = e
		ts = append(ts, t)
	}
	if ts != nil {
		w.fr.add(ts...)
	}
}

// record handles one surviving full path; it reports false to stop the
// walk (path budget exhausted).
func (w *walker) record() bool {
	if w.sat != nil && !w.exactCheck() {
		w.satRejects++
		return true
	}
	cont := true
	if w.sh != nil && w.sh.limit > 0 {
		n := w.sh.selected.Add(1)
		if n > w.sh.limit {
			// Another worker recorded the budget's final path first; this
			// one is not counted.
			w.sh.sched.stop.Store(true)
			return false
		}
		if n == w.sh.limit {
			w.sh.sched.stop.Store(true)
			cont = false
		}
	}
	w.selected++
	if w.tally != nil {
		w.tally[w.gateBuf[len(w.gateBuf)-1]].selected++
	}
	if w.leadCounts != nil {
		for i := 1; i < len(w.gateBuf); i++ {
			g := w.gateBuf[i]
			ctrl, ok := w.c.Type(g).Controlling()
			if ok && w.valBuf[i-1] == ctrl {
				w.leadCounts[w.c.LeadIndex(g, w.pinBuf[i-1])]++
			}
		}
	}
	if w.onPath != nil {
		w.onPath(paths.Logical{
			Path:     paths.Path{Gates: w.gateBuf, Pins: w.pinBuf},
			FinalOne: w.valBuf[0],
		})
	}
	if w.sh == nil && w.limit > 0 && w.selected >= w.limit {
		w.stopped = true
		return false
	}
	return cont
}

// exactCheck asks the SAT solver whether the accumulated conditions are
// satisfiable over the whole circuit. Every condition is already recorded
// in the implication engine's assignments, which are sound consequences,
// so asserting the engine's trail values of the on-path and side gates as
// assumptions is exact.
func (w *walker) exactCheck() bool {
	w.assume = w.assume[:0]
	// (π1) + on-path values.
	for i, g := range w.gateBuf {
		w.assume = append(w.assume, w.vars.Lit(g, w.valBuf[i]))
	}
	// Side conditions of every on-path gate.
	for i := 1; i < len(w.gateBuf); i++ {
		g := w.gateBuf[i]
		t := w.c.Type(g)
		ctrl, hasCtrl := t.Controlling()
		if !hasCtrl {
			continue
		}
		onPathCtrl := w.valBuf[i-1] == ctrl
		sides := w.cr.sideConstraints(w.sideBuf[:0], w.c, w.opt.Sort, g, w.pinBuf[i-1], onPathCtrl)
		for _, p := range sides {
			w.assume = append(w.assume, w.vars.Lit(w.c.Fanin(g)[p], !ctrl))
		}
	}
	return w.sat.Solve(w.assume...)
}

// dfs explores every extension of the current path, whose last gate is g
// with final stable value val. When idle workers exist it first exports
// the untaken large branches of the frontier as steal tasks and keeps
// only the remainder for itself. On cancellation it checkpoints the
// untaken siblings before unwinding.
func (w *walker) dfs(g circuit.GateID) bool {
	if w.c.Type(g) == circuit.Output {
		return w.record()
	}
	fanout := w.c.Fanout(g)
	exporting := false
	if w.sh != nil && len(fanout) > 1 && w.sh.sched.hungry.Load() {
		exporting = w.export(fanout)
	}
	for i := range fanout {
		if exporting && i > 0 && w.sh.splitOK[fanout[i].To] {
			continue // handed to the scheduler by export
		}
		if w.want != nil && !w.want[fanout[i].To] {
			continue // reaches no requested output
		}
		if !w.extend(fanout[i]) {
			if w.canceled() {
				// extend saved fanout[i] itself (or deeper frames saved
				// its remainder); the untaken siblings go here. Every
				// edge extension is atomic with respect to the counters,
				// so the frontier is the exact complement of the walk.
				w.saveSiblings(fanout, i+1, exporting)
			}
			return false
		}
	}
	return true
}

// export packages every splittable branch of the frontier except the
// first edge (which the walker keeps, so it always makes progress
// without re-queueing) as steal tasks. The engine snapshot and prefix
// buffers are copied once and shared read-only across the tasks. It
// reports whether anything was exported; the caller then skips exactly
// the splitOK branches beyond index 0, mirroring the condition here.
func (w *walker) export(fanout []circuit.Edge) bool {
	var ts []task
	for _, e := range fanout[1:] {
		if !w.sh.splitOK[e.To] || (w.want != nil && !w.want[e.To]) {
			continue
		}
		if ts == nil {
			shared := task{
				snap:  w.eng.Snapshot(),
				gates: append([]circuit.GateID(nil), w.gateBuf...),
				pins:  append([]int(nil), w.pinBuf...),
				vals:  append([]bool(nil), w.valBuf...),
			}
			ts = append(ts, shared)
			ts[0].edge = e
			continue
		}
		t := ts[0]
		t.edge = e
		ts = append(ts, t)
	}
	if ts == nil {
		return false
	}
	w.sh.sched.put(ts...)
	return true
}

// extend advances the current path along edge e: assert the next on-path
// value and the criterion's side-input requirements, prune the subtree on
// contradiction, recurse otherwise. It reports false when the walk must
// stop (path budget exhausted or run canceled). The cancellation check
// precedes all counter updates, so an interrupted edge contributes
// nothing and is checkpointed whole.
func (w *walker) extend(e circuit.Edge) bool {
	if w.canceled() {
		w.saveBranch(e)
		return false
	}
	if w.sh != nil && w.sh.sched.stop.Load() {
		return false
	}
	w.segments++
	next := e.To
	if w.tally != nil {
		w.tally[next].segments++
	}
	t := w.c.Type(next)
	val := w.valBuf[len(w.valBuf)-1]
	nval := val != t.Inverting()
	ctrlVal, hasCtrl := t.Controlling()
	onPathCtrl := hasCtrl && val == ctrlVal
	w.sideBuf = w.cr.sideConstraints(w.sideBuf[:0], w.c, w.opt.Sort, next, e.Pin, onPathCtrl)

	// Every path through next ends at an output next reaches, so
	// implication need not leave those outputs' cones (logic.Engine.Narrow).
	w.eng.Narrow(next, w.within)
	mark := w.eng.Mark()
	ok := w.eng.Assign(next, nval)
	if ok {
		nonCtrl := !ctrlVal
		for _, p := range w.sideBuf {
			if !w.eng.Assign(w.c.Fanin(next)[p], nonCtrl) {
				ok = false
				break
			}
		}
	}
	if !ok {
		w.pruned++
		if w.tally != nil {
			w.tally[next].pruned++
		}
		w.eng.BacktrackTo(mark)
		if w.opt.onPrune != nil {
			w.gateBuf = append(w.gateBuf, next)
			w.pinBuf = append(w.pinBuf, e.Pin)
			w.opt.onPrune(w.gateBuf, w.pinBuf, w.valBuf[0])
			w.gateBuf = w.gateBuf[:len(w.gateBuf)-1]
			w.pinBuf = w.pinBuf[:len(w.pinBuf)-1]
		}
		if w.opt.NoPrune {
			w.gateBuf = append(w.gateBuf, next)
			w.pinBuf = append(w.pinBuf, e.Pin)
			w.valBuf = append(w.valBuf, nval)
			okWalk := w.walkRejected(next)
			w.gateBuf = w.gateBuf[:len(w.gateBuf)-1]
			w.pinBuf = w.pinBuf[:len(w.pinBuf)-1]
			w.valBuf = w.valBuf[:len(w.valBuf)-1]
			if !okWalk {
				return false
			}
		}
		return true
	}
	w.gateBuf = append(w.gateBuf, next)
	w.pinBuf = append(w.pinBuf, e.Pin)
	w.valBuf = append(w.valBuf, nval)
	cont := w.dfs(next)
	w.gateBuf = w.gateBuf[:len(w.gateBuf)-1]
	w.pinBuf = w.pinBuf[:len(w.pinBuf)-1]
	w.valBuf = w.valBuf[:len(w.valBuf)-1]
	w.eng.BacktrackTo(mark)
	return cont
}

// walkRejected visits (without checking conditions) every path extension
// under g, so that the NoPrune ablation pays the full enumeration cost.
func (w *walker) walkRejected(g circuit.GateID) bool {
	if w.c.Type(g) == circuit.Output {
		return true
	}
	for _, e := range w.c.Fanout(g) {
		w.segments++
		if !w.walkRejected(e.To) {
			return false
		}
	}
	return true
}

// run enumerates all logical paths launched at pi with final value x on a
// clean engine; it reports false when the walk was stopped by the limit.
func (w *walker) run(pi circuit.GateID, x bool) bool {
	mark := w.eng.Mark()
	defer w.eng.BacktrackTo(mark)
	w.eng.Narrow(pi, w.within)
	// (π1): v sets PI(P) to x.
	if !w.eng.Assign(pi, x) {
		return true
	}
	w.gateBuf = append(w.gateBuf[:0], pi)
	w.pinBuf = w.pinBuf[:0]
	w.valBuf = append(w.valBuf[:0], x)
	return w.dfs(pi)
}

// runTask executes one scheduler task: a fresh (PI, transition) walk or a
// stolen mid-DFS branch. The engine may hold leftovers of the previous
// task; both entry points wipe it in O(trail).
func (w *walker) runTask(t task) {
	if t.isRoot {
		w.eng.Reset()
		w.run(t.pi, t.x)
		return
	}
	w.eng.Restore(t.snap)
	w.gateBuf = append(w.gateBuf[:0], t.gates...)
	w.pinBuf = append(w.pinBuf[:0], t.pins...)
	w.valBuf = append(w.valBuf[:0], t.vals...)
	w.extend(t.edge)
}

// runTaskGuarded is runTask with panic isolation: a crash becomes a
// WorkerError carrying the walker's on-path prefix, and the walker stays
// usable (the next task's entry point wipes the engine and buffers).
// After a panic this walker's counters may include a partially-walked
// subtree, which is why any panic degrades the whole run.
func (w *walker) runTaskGuarded(t task, we *workerErrors) {
	defer w.publish() // task boundary: progress is fresh even on tiny circuits
	defer func() {
		if r := recover(); r != nil {
			we.add(&WorkerError{
				Worker:    w.wid,
				PathGates: append([]circuit.GateID(nil), w.gateBuf...),
				Value:     r,
				Stack:     string(debug.Stack()),
			})
		}
	}()
	// Chaos hook: an armed PointWorker rule crashes this task exactly like
	// a real walker bug would, exercising the recovery above end to end.
	// Error-kind rules crash too — a worker has no error channel.
	if err := faultinject.Fire(faultinject.PointWorker); err != nil {
		panic(err)
	}
	w.runTask(t)
}

// Enumerate runs Algorithm 2: it implicitly enumerates all logical paths
// of c in depth-first order from each PI, asserting the criterion's
// side-input requirements and the implied on-path stable values into a
// local implication engine. A contradiction prunes the whole subtree
// (footnote 3: every extension of a failing segment is RD), which is what
// makes circuits with tens of millions of paths tractable. With
// Options.Workers > 1 the depth-first walks are balanced across
// goroutines by work stealing; every count is schedule-independent.
//
// The run is cancellable (Options.Context), time-budgeted
// (Options.Deadline) and resumable (Options.Checkpoint); interruption and
// worker panics are reported through Result.Status rather than the error
// return, which is reserved for invalid inputs.
func Enumerate(c *circuit.Circuit, cr Criterion, opt Options) (*Result, error) {
	if err := checkSort(c, cr, opt.Sort); err != nil {
		return nil, err
	}
	ctx, cancel := runContext(opt)
	defer cancel()

	start := time.Now()
	an := analysis.For(c)
	res := &Result{
		Criterion: cr,
		Total:     an.CopyLogical(),
	}
	// The sort a checkpoint is bound to: only SigmaPi consults one.
	ckptSort := opt.Sort
	if cr != SigmaPi {
		ckptSort = nil
	}

	// Work list: the checkpoint's frontier, or fresh root tasks covering
	// every (PI, transition) pair.
	var tasks []task
	var baseline CheckpointCounters
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.validateFor(CheckpointVersion, c, cr, ckptSort); err != nil {
			return nil, err
		}
		baseline = opt.Checkpoint.Counters
		tasks = opt.Checkpoint.toTasks()
	} else {
		tasks = rootTasks(c, nil)
	}
	addBaseline := func() {
		res.Selected += baseline.Selected
		res.Segments += baseline.Segments
		res.Pruned += baseline.Pruned
		res.SATRejects += baseline.SATRejects
		if opt.CollectLeadCounts {
			if res.LeadCounts == nil {
				res.LeadCounts = make([]int64, c.NumLeads())
			}
			copy(res.LeadCounts, baseline.LeadCounts)
		}
	}

	// Live progress: rebase the tracker on this pass's resume baseline;
	// finishProgress freezes it on the exact final counters at every
	// return below.
	if opt.Progress != nil {
		opt.Progress.begin(Progress{
			Selected:   baseline.Selected,
			Segments:   baseline.Segments,
			Pruned:     baseline.Pruned,
			SATRejects: baseline.SATRejects,
		})
	}
	finishProgress := func() {
		if opt.Progress != nil {
			opt.Progress.Freeze(progressOf(res))
		}
	}

	// A resumed run whose baseline already consumed the budget.
	if opt.Limit > 0 && baseline.Selected >= opt.Limit {
		addBaseline()
		res.Status = StatusTruncated
		res.Duration = time.Since(start)
		finishProgress()
		return res, nil
	}

	finishInterrupted := func(fr *frontier) {
		res.Status, res.Err = interruption(ctx)
		res.Checkpoint = buildCheckpoint(CheckpointVersion, c, cr, ckptSort, res.counters(), fr.tasks)
	}

	// Immediate cancellation: nothing walked, the whole work list is the
	// checkpoint. Checked synchronously so an already-expired context
	// returns deterministically without spinning up workers.
	if ctx.Err() != nil {
		addBaseline()
		if opt.CollectLeadCounts && res.LeadCounts == nil {
			res.LeadCounts = make([]int64, c.NumLeads())
		}
		finishInterrupted(&frontier{tasks: tasks})
		res.Duration = time.Since(start)
		finishProgress()
		return res, nil
	}

	p := walkTasks(ctx, an, cr, &opt, tasks, baseline.Selected, nil)
	addBaseline()
	if opt.CollectLeadCounts && res.LeadCounts == nil {
		res.LeadCounts = make([]int64, c.NumLeads())
	}
	for _, w := range p.ws {
		res.add(w)
	}

	switch {
	case len(p.we.errs) > 0:
		res.degrade(p.we.errs)
	case p.limitStopped:
		res.Status = StatusTruncated
	case p.canceled && len(p.fr.tasks) > 0:
		finishInterrupted(&p.fr)
	default:
		// Either no interruption, or cancellation fired after the last
		// branch was already walked — the counters are complete.
		res.complete()
	}
	res.Duration = time.Since(start)
	finishProgress()
	return res, nil
}

// checkSort rejects a SigmaPi run without a valid input sort for c.
func checkSort(c *circuit.Circuit, cr Criterion, s *circuit.InputSort) error {
	if cr != SigmaPi {
		return nil
	}
	if s == nil {
		return fmt.Errorf("core: SigmaPi enumeration requires an input sort")
	}
	if err := s.Validate(c); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	return nil
}

// runContext is the run's context: opt.Context (or Background) bounded
// by opt.Deadline when one is set.
func runContext(opt Options) (context.Context, context.CancelFunc) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Deadline > 0 {
		return context.WithTimeout(ctx, opt.Deadline)
	}
	return ctx, func() {}
}

// rootTasks covers every (PI, transition) pair of c, skipping the PIs
// keep rejects (nil keeps all).
func rootTasks(c *circuit.Circuit, keep []bool) []task {
	var tasks []task
	for _, pi := range c.Inputs() {
		if keep == nil || keep[pi] {
			tasks = append(tasks,
				task{isRoot: true, pi: pi, x: false},
				task{isRoot: true, pi: pi, x: true})
		}
	}
	return tasks
}

// interruption classifies a stopped run. The context's timer may still
// be starved when the walkers stop via the direct deadline poll, so a
// nil or canceled ctx.Err() with the deadline in the past still
// classifies as a deadline stop.
func interruption(ctx context.Context) (Status, error) {
	deadline, hasDeadline := ctx.Deadline()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) ||
		(hasDeadline && !time.Now().Before(deadline)) {
		return StatusDeadline, ErrDeadline
	}
	return StatusCanceled, ErrCanceled
}

// add folds one walker's counters into the result.
func (r *Result) add(w *walker) {
	r.Selected += w.selected
	r.Segments += w.segments
	r.Pruned += w.pruned
	r.SATRejects += w.satRejects
	if r.LeadCounts != nil {
		for i, v := range w.leadCounts {
			r.LeadCounts[i] += v
		}
	}
}

// complete marks the result exact and derives RD.
func (r *Result) complete() {
	r.Status = StatusComplete
	r.Complete = true
	r.RD = new(big.Int).Sub(r.Total, big.NewInt(r.Selected))
}

// degrade marks a run in which walkers panicked. A crashed subtree is
// partially counted; no checkpoint can make the counters exact again,
// so the surviving workers' results are reported and RD stays unknown.
func (r *Result) degrade(errs []*WorkerError) {
	r.Status = StatusDegraded
	r.WorkerErrors = errs
	joined := make([]error, len(errs))
	for i, e := range errs {
		joined[i] = e
	}
	r.Err = errors.Join(joined...)
}

// pass is one work list run to its end by walkTasks.
type pass struct {
	// ws holds the walkers, whose counters the caller folds.
	ws []*walker
	// fr is the untaken frontier of a canceled run.
	fr frontier
	we workerErrors
	// limitStopped reports that the path budget ran out; canceled that
	// the run's cancellation flag was set.
	limitStopped, canceled bool
}

// walkTasks runs tasks on one walker, or on opt.Workers walkers balanced
// by work stealing, until the list is exhausted, the path budget runs
// out or ctx fires. prep, when non-nil, configures every walker before
// it starts. The walkers' engines are back on the analysis free-list
// when it returns.
func walkTasks(ctx context.Context, an *analysis.Analysis, cr Criterion, opt *Options, tasks []task, baseSelected int64, prep func(*walker)) *pass {
	c := an.Circuit()
	p := &pass{}
	fr, we := &p.fr, &p.we

	// Cancellation: a watcher flips one atomic flag that walkers poll at
	// branch-extension granularity (the same cost as the work-stealing
	// stop check).
	var cancelFlag atomic.Bool
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				cancelFlag.Store(true)
			case <-watchDone:
			}
		}()
		defer close(watchDone)
	}
	deadline, hasDeadline := ctx.Deadline()
	newW := func(onPath func(paths.Logical)) *walker {
		w := newWalker(an, cr, opt, onPath)
		w.cancel = &cancelFlag
		w.ctx = ctx
		if hasDeadline {
			w.deadline = deadline
		}
		w.fr = fr
		if prep != nil {
			prep(w)
		}
		return w
	}

	workers := opt.Workers
	if workers <= 1 || opt.onPrune != nil {
		// onPrune consumers (RD certificates) rely on DFS discovery order.
		workers = 1
	}

	if workers == 1 {
		w := newW(opt.OnPath)
		if opt.Limit > 0 {
			w.limit = opt.Limit - baseSelected
		}
		p.ws = append(p.ws, w)
		for i := range tasks {
			if cancelFlag.Load() {
				// Un-walked tasks go to the frontier wholesale.
				fr.add(tasks[i:]...)
				break
			}
			if w.stopped {
				break
			}
			w.runTaskGuarded(tasks[i], we)
		}
		p.limitStopped = w.stopped
	} else {
		onPath := opt.OnPath
		if onPath != nil {
			var mu sync.Mutex
			inner := opt.OnPath
			onPath = func(lp paths.Logical) {
				mu.Lock()
				defer mu.Unlock()
				inner(lp)
			}
		}
		sh := &shared{
			sched:   newScheduler(workers),
			splitOK: make([]bool, c.NumGates()),
			limit:   opt.Limit,
		}
		sh.selected.Store(baseSelected)
		ct := an.Counts()
		minSplit := big.NewInt(minSplitSuffixes)
		for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
			sh.splitOK[g] = ct.Down(g).Cmp(minSplit) >= 0
		}
		sh.sched.put(tasks...)
		var wg sync.WaitGroup
		p.ws = make([]*walker, workers)
		for i := range p.ws {
			w := newW(onPath)
			w.sh = sh
			w.wid = i
			p.ws[i] = w
			wg.Add(1)
			go func(w *walker) {
				defer wg.Done()
				for {
					t, ok := sh.sched.get()
					if !ok {
						return
					}
					if w.canceled() {
						fr.add(t) // un-walked: straight to the checkpoint
						continue
					}
					if sh.sched.stop.Load() {
						continue // budget exhausted: drain without walking
					}
					w.runTaskGuarded(t, we)
				}
			}(w)
		}
		wg.Wait()
		p.limitStopped = sh.sched.stop.Load()
	}
	p.canceled = cancelFlag.Load()
	// Engines go back to the free-list for the next run (including after
	// a worker panic: every assignment is on the trail, so PutEngine's
	// reset wipes a crashed walk too).
	for _, w := range p.ws {
		an.PutEngine(w.eng)
	}
	return p
}
