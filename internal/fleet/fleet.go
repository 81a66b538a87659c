package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/retry"
	"rdfault/internal/serve"
	"rdfault/internal/store"
	"rdfault/internal/telemetry"
)

// ErrNoWorkers: every worker is dead (quarantined and probed out) while
// cones are still unfinished. The run fails typed rather than hanging.
var ErrNoWorkers = errors.New("fleet: no live workers left with cones pending")

// ErrKilled: a coord.kill fault-injection rule fired and the
// coordinator aborted at a phase boundary as if the process died there.
// The job's journal, if any, holds everything durable up to that
// boundary; Resume picks it up.
var ErrKilled = errors.New("fleet: coordinator killed")

// ErrStaleCoordinator re-exports the journal's fencing error: a
// coordinator superseded by a newer term (a standby promotion or a
// restart takeover) gets it on every append and merge path.
var ErrStaleCoordinator = journal.ErrStaleCoordinator

// Config shapes one coordinator run. The zero value (plus a Transport
// and Workers) takes the documented defaults.
type Config struct {
	// Transport carries dispatches; required.
	Transport Transport
	// Workers are the worker addresses (host:port); at least one.
	Workers []string
	// SliceMS bounds each dispatched slice so workers stream checkpoints
	// back; 0 dispatches whole groups (failover then restarts a lost
	// group from its last completed dispatch, i.e. from scratch).
	SliceMS int64
	// EnumWorkers is the per-slice enumeration parallelism on the worker
	// (0 = worker default).
	EnumWorkers int
	// DispatchTimeout is how long the coordinator waits for a dispatch
	// before abandoning it: the group's epoch advances, the group
	// requeues, and the old dispatch's eventual reply is discarded as a
	// zombie (default 60s). With SliceMS 0 it bounds a whole group's walk.
	DispatchTimeout time.Duration
	// FailThreshold is the consecutive-failure count that quarantines a
	// worker (default 3).
	FailThreshold int
	// Backoff paces a worker's retries after a failed dispatch; its
	// Attempts field is ignored (the circuit breaker, not the retry
	// count, bounds failures). Default: 4 attempts' worth of envelope,
	// base 25ms, cap 1s, seeded jitter.
	Backoff retry.Policy
	// Probe paces a quarantined worker's health checks; when its
	// Attempts are exhausted the worker is dead (default 5 attempts,
	// base 50ms, cap 2s).
	Probe retry.Policy
	// ProbeTimeout bounds each individual health probe (default 2s).
	ProbeTimeout time.Duration
	// OnEvent, when set, receives every log event as it happens.
	OnEvent func(Event)
	// Telemetry, when set, receives every event as a JSONL line in the
	// unified structured-log schema. Sharing one log between a
	// coordinator and a serve instance interleaves both layers into one
	// totally-ordered stream.
	Telemetry *telemetry.Log
	// Store, when set, is consulted before dispatching: a cone whose key
	// (shape + projected sort + criterion) has a stored answer is
	// retired at build time without ever reaching a worker, and every
	// fresh complete answer is written back for the next run.
	Store *store.Store
	// Journal, when set, is the run's write-ahead job journal: admission,
	// leases, checkpoints, answers and the seal are appended (and synced)
	// before the corresponding side effect, so Resume can rebuild the
	// run from the journal alone. The caller owns the writer's lifetime.
	// Resume ignores this field — it opens its own writer on the
	// journal it replays.
	Journal *journal.Writer
	// Fence, when set, arbitrates coordinator terms for Resume: a
	// promoted coordinator acquires the next term on it, fencing every
	// writer (an old primary) still appending under a lower one.
	Fence *journal.Fence
	// Metrics, when set, receives takeover/journal/fencing metrics.
	// Share one Metrics across runs — registering twice on one registry
	// panics.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = 60 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Backoff.Base <= 0 {
		c.Backoff.Base = 25 * time.Millisecond
	}
	if c.Backoff.Cap <= 0 {
		c.Backoff.Cap = time.Second
	}
	if c.Probe.Attempts == 0 {
		c.Probe.Attempts = 5
	}
	if c.Probe.Base <= 0 {
		c.Probe.Base = 50 * time.Millisecond
	}
	if c.Probe.Cap <= 0 {
		c.Probe.Cap = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	return c
}

// Stats counts what the run survived. Dispatches, Slices and Restarts
// count group dispatches: one dispatch walks every cone of its group.
type Stats struct {
	Cones          int   `json:"cones"`
	Dispatches     int64 `json:"dispatches"`
	Slices         int64 `json:"slices"`
	Failures       int64 `json:"failures"`
	Abandoned      int64 `json:"abandoned"`
	ZombieDiscards int64 `json:"zombie_discards"`
	Restarts       int64 `json:"restarts"`
	Quarantines    int64 `json:"quarantines"`
	Rejoins        int64 `json:"rejoins"`
	DeadWorkers    int64 `json:"dead_workers"`
	// StoreHits counts cones served from the result store without a
	// single dispatch.
	StoreHits int64 `json:"store_hits,omitempty"`
	// JournalRetired counts cones retired by recovery replay from
	// journaled answers — no re-dispatch, no recompute.
	JournalRetired int64 `json:"journal_retired,omitempty"`
	// Fenced counts stale-coordinator rejections this run observed.
	Fenced int64 `json:"fenced,omitempty"`
}

// ConeResult is one cone's final accounting.
type ConeResult struct {
	Name string `json:"name"`
	// Answer is the accepted complete answer (cumulative over the cone's
	// whole slice chain).
	Answer *serve.ConeAnswer `json:"answer"`
	// Slices counts the accepted dispatch answers of the cone's group,
	// complete included.
	Slices int `json:"slices"`
	// Restarts counts how many times the cone's group lost its
	// checkpoint and started over.
	Restarts int `json:"restarts"`
}

// Result is the merged run: counters summed over cones in deterministic
// cone order. Selected/RD/Total are bit-identical to a single-process
// run of the same circuit, heuristic and criterion; Segments is the
// sharded work sum (shared DFS prefixes are walked once per cone, so it
// exceeds the single-process count, but it is the same for every worker
// count and chaos schedule).
type Result struct {
	Circuit   string       `json:"circuit"`
	Heuristic string       `json:"heuristic"`
	Criterion string       `json:"criterion"`
	Total     *big.Int     `json:"-"`
	Selected  int64        `json:"selected"`
	RD        *big.Int     `json:"-"`
	Segments  int64        `json:"segments"`
	Pruned    int64        `json:"pruned"`
	TotalStr  string       `json:"total_paths"`
	RDStr     string       `json:"rd"`
	PerCone   []ConeResult `json:"per_cone"`
	Stats     Stats        `json:"stats"`
	Events    []Event      `json:"-"`
	Duration  time.Duration
}

// job is one cone's accounting. A cone is retired at build time (a
// store or journal answer) or with its group; final and the counters
// are read only after every dispatch has ended.
type job struct {
	idx  int
	name string
	// storeKey addresses this cone's result in the store ("" without
	// one); a completed cone writes back under it.
	storeKey string

	done     bool
	final    *serve.ConeAnswer
	slices   int
	restarts int
}

// group is the dispatch unit: cones a worker walks together in one
// output-restricted walk of the whole netlist. epoch implements
// at-most-once accounting: a dispatch captures the epoch it was issued
// under, and a reply whose epoch no longer matches (the coordinator
// abandoned the dispatch and moved on) is discarded.
type group struct {
	jobs []*job
	// outputs are the cones' positions in the circuit's output list, the
	// request's addressing; label names the cones in events.
	outputs []int
	label   string

	mu         sync.Mutex
	epoch      uint64
	checkpoint json.RawMessage
	done       bool
	slices     int
	restarts   int
}

func newGroup(jobs []*job) *group {
	g := &group{jobs: jobs}
	names := make([]string, len(jobs))
	for i, j := range jobs {
		g.outputs = append(g.outputs, j.idx)
		names[i] = j.name
	}
	g.label = strings.Join(names, ",")
	return g
}

// deal splits the pending cones round-robin, in output order, into one
// group per worker, or one per cone when fewer cones are pending. The
// partition moves no counter: a cone's counters are those of its own
// walk whatever it is walked with.
func deal(pending []*job, workers int) []*group {
	n := min(workers, len(pending))
	parts := make([][]*job, n)
	for i, j := range pending {
		parts[i%n] = append(parts[i%n], j)
	}
	groups := make([]*group, n)
	for i, p := range parts {
		groups[i] = newGroup(p)
	}
	return groups
}

// runMeta carries what the merged Result reports about the run's
// identity. A fresh Run takes it from the circuit; Resume takes it from
// the journaled admit record — recovery never needs the circuit object.
type runMeta struct {
	circuit   string
	heuristic string
}

type coordinator struct {
	cfg       Config
	criterion string
	meta      runMeta
	jw        *journal.Writer
	metrics   *Metrics
	// bench and sort are what every dispatch ships: the whole netlist
	// and the global sort keyed by gate name (nil for FS).
	bench string
	sort  map[string][]int

	jobs []*job
	// writer maps each store key to the last cone carrying it. Twin cones
	// (isomorphic, under equal sort rows) share a key and their counters;
	// only the last one writes the record back, so the record names the
	// same cone whatever order the groups complete in.
	writer    map[string]int
	queue     chan *group
	remaining atomic.Int64 // cones not yet retired
	allDone   chan struct{}
	live      atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc

	failOnce sync.Once
	failErr  error

	// killMu orders a fired coord.kill against journal appends: an append
	// completes before the kill or never begins, as in a process that
	// died at that instant.
	killMu sync.Mutex
	killed bool

	events *eventLog
	stats  struct {
		dispatches, slices, failures, abandoned atomic.Int64
		zombies, restarts                       atomic.Int64
		quarantines, rejoins, dead, storeHits   atomic.Int64
		retired, fenced                         atomic.Int64
	}

	loopWG sync.WaitGroup // worker loops
	bgWG   sync.WaitGroup // detached dispatches and zombie reapers
}

func newCoordinator(cfg Config, criterion string, meta runMeta, bench string, sort map[string][]int, jobs []*job) *coordinator {
	writer := map[string]int{}
	for _, j := range jobs {
		writer[j.storeKey] = j.idx
	}
	return &coordinator{
		writer:    writer,
		cfg:       cfg,
		criterion: criterion,
		meta:      meta,
		bench:     bench,
		sort:      sort,
		jw:        cfg.Journal,
		metrics:   cfg.Metrics,
		jobs:      jobs,
		allDone:   make(chan struct{}),
		cancel:    func() {}, // replaced by run; fail is safe before then
		events:    &eventLog{sink: cfg.OnEvent, tl: cfg.Telemetry},
	}
}

// fireKill fires the phase-specific coord.kill subpoint, then the
// generic point, and reports whether a kill rule matched. The subpoints
// let a chaos schedule target exactly one phase even when phases
// interleave across goroutines.
func fireKill(phase string) error {
	if err := faultinject.Fire(faultinject.PointCoordKill + "." + phase); err != nil {
		return err
	}
	return faultinject.Fire(faultinject.PointCoordKill)
}

// killCheck aborts the run at a phase boundary if a coord.kill rule
// fires; true means the caller must stop — the coordinator "died" here
// or earlier, with every journal record appended before the kill
// durable and none appended after it.
func (co *coordinator) killCheck(phase string) bool {
	co.killMu.Lock()
	fired := !co.killed && fireKill(phase) != nil
	killed := fired || co.killed
	co.killed = killed
	co.killMu.Unlock()
	if fired {
		co.events.add(EvKilled, "", "", phase, nil)
		co.fail(fmt.Errorf("%w at %s", ErrKilled, phase))
	}
	return killed
}

// journalAppend writes write-ahead records of one kind with one fsync
// (nil journal: a no-op). False means the coordinator was killed or the
// append failed, and the run is aborting: a fenced term fails typed
// with ErrStaleCoordinator (the caller must not perform the side effect
// — that is the whole at-most-once argument), any other failure aborts
// because proceeding past an unjournaled side effect would make
// recovery wrong.
func (co *coordinator) journalAppend(kind string, payloads ...any) bool {
	if co.jw == nil {
		return true
	}
	co.killMu.Lock()
	if co.killed {
		co.killMu.Unlock()
		return false
	}
	err := co.jw.Append(kind, payloads...)
	co.killMu.Unlock()
	if co.metrics != nil {
		co.metrics.JournalBytes.Set(co.jw.Bytes())
	}
	if err == nil {
		return true
	}
	if errors.Is(err, journal.ErrStaleCoordinator) {
		co.stats.fenced.Add(1)
		if co.metrics != nil {
			co.metrics.Fenced.Inc()
		}
		co.events.add(EvFenced, "", "", err.Error(), nil)
		co.fail(err)
		return false
	}
	co.events.add(EvJournalError, "", "", err.Error(), nil)
	co.fail(fmt.Errorf("fleet: journal append: %w", err))
	return false
}

// Run shards c by output cone and drives the worker pool until every
// cone has a complete answer (or the run fails typed). The input sort
// is computed once, globally, from h, and shipped with the netlist;
// each worker walks its group's cones under it, which is what makes the
// merged counters exact. The cones the store cannot answer are dealt
// into one group per worker.
func Run(ctx context.Context, cfg Config, c *circuit.Circuit, h core.Heuristic) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, errors.New("fleet: no transport")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	start := time.Now()

	if err := fireKill("pre-sort"); err != nil {
		// Died before admitting anything: the journal (if any) holds no
		// job, and recovery correctly starts the run from scratch.
		return nil, fmt.Errorf("%w at pre-sort", ErrKilled)
	}
	// The analysis built for c below (counts, sort) is read by nothing
	// after the merge; releasing it keeps the registry for circuits that
	// are looked up again.
	defer analysis.Drop(c)

	criterion := h.Criterion()
	sort, err := core.HeuristicSort(ctx, c, h, 0)
	if err != nil {
		return nil, err
	}
	var bench strings.Builder
	if err := circuit.WriteBench(&bench, c); err != nil {
		return nil, err
	}
	var byName map[string][]int
	if sort != nil {
		byName = sort.ByName(c)
	}

	outputs := c.Outputs()
	var keys []string
	if cfg.Store != nil {
		keys = store.ConeKeys(c, sort, criterion)
	}
	jobs := make([]*job, len(outputs))
	var storeHits int64
	for i, po := range outputs {
		j := &job{idx: i, name: store.ConeName(c, po)}
		if keys != nil {
			j.storeKey = keys[i]
			if ans := storedConeAnswer(cfg.Store, j.storeKey, j.name, criterion); ans != nil {
				// Retired before the run starts: never dealt, never
				// dispatched. The answer is sealed like a worker's, so the
				// merge path treats both provenances identically.
				j.done = true
				j.final = ans
				storeHits++
			}
		}
		jobs[i] = j
	}

	co := newCoordinator(cfg, criterion.String(), runMeta{circuit: c.Name(), heuristic: h.String()},
		bench.String(), byName, jobs)
	co.stats.storeHits.Store(storeHits)

	// Journal admission before anything else happens: the admit record
	// (netlist, global sort, cones) is what Resume rebuilds from, and the
	// store-retired answers follow it so a resumed journal retires them
	// without consulting the store again.
	if co.jw != nil {
		ar := admitRecord{
			Circuit:   co.meta.circuit,
			Heuristic: co.meta.heuristic,
			Criterion: co.criterion,
			SliceMS:   cfg.SliceMS,
			Bench:     co.bench,
			Sort:      co.sort,
			Cones:     make([]admitCone, len(jobs)),
		}
		var stored []any
		for i, j := range jobs {
			ar.Cones[i] = admitCone{Name: j.name, StoreKey: j.storeKey}
			if j.done {
				stored = append(stored, answerRecord{Cone: j.idx, Name: j.name, Source: answerSourceStore, Answer: j.final})
			}
		}
		if err := co.jw.Append(journal.KindAdmit, ar); err != nil {
			return nil, fmt.Errorf("fleet: journal admission: %w", err)
		}
		if len(stored) > 0 {
			if err := co.jw.Append(journal.KindAnswer, stored...); err != nil {
				return nil, fmt.Errorf("fleet: journal admission: %w", err)
			}
		}
		if co.metrics != nil {
			co.metrics.JournalBytes.Set(co.jw.Bytes())
		}
	}
	var pending []*job
	for _, j := range jobs {
		if j.done {
			co.events.add(EvStoreHit, "", j.name, "served from result store",
				map[string]int64{"selected": j.final.Selected, "segments": j.final.Segments})
		} else {
			pending = append(pending, j)
		}
	}
	return co.run(ctx, start, deal(pending, len(cfg.Workers)))
}

// run drives the coordinator from dealt groups to merged result: the
// shared back half of Run and Resume.
func (co *coordinator) run(ctx context.Context, start time.Time, groups []*group) (*Result, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	co.ctx = runCtx
	co.cancel = cancel

	pending := 0
	for _, g := range groups {
		pending += len(g.jobs)
	}
	co.remaining.Store(int64(pending))
	if pending == 0 {
		close(co.allDone)
	}
	co.queue = make(chan *group, len(groups))
	for _, g := range groups {
		co.queue <- g
	}
	co.live.Store(int64(len(co.cfg.Workers)))
	for i, w := range co.cfg.Workers {
		co.loopWG.Add(1)
		go co.workerLoop(w, i)
	}

	select {
	case <-co.allDone:
	case <-runCtx.Done():
	}
	cancel()
	co.loopWG.Wait()
	co.bgWG.Wait()

	if co.failErr != nil {
		return nil, co.failErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-co.allDone:
	default:
		return nil, errors.New("fleet: run ended with cones unfinished")
	}
	return co.merge(start)
}

// fail records the run's terminal error once and aborts everything.
func (co *coordinator) fail(err error) {
	co.failOnce.Do(func() {
		co.failErr = err
		co.cancel()
	})
}

// groupDone retires a group's cones; the last one ends the run.
func (co *coordinator) groupDone(g *group) {
	if co.remaining.Add(-int64(len(g.jobs))) == 0 {
		close(co.allDone)
	}
}

// requeue puts a group back on the queue. Each group has exactly one
// ownership token (queued, or held by the dispatching loop), so the
// buffered channel can never overflow.
func (co *coordinator) requeue(g *group) {
	select {
	case co.queue <- g:
	default:
		// Unreachable while the single-ownership invariant holds; failing
		// loudly beats deadlocking silently.
		co.fail(fmt.Errorf("fleet: requeue overflow on cones %s", g.label))
	}
}

// workerLoop owns one worker: it pulls groups, dispatches them, trips
// the circuit breaker after FailThreshold consecutive failures, probes
// the worker back to health or declares it dead.
func (co *coordinator) workerLoop(worker string, seed int) {
	defer co.loopWG.Done()
	backoff := co.cfg.Backoff
	backoff.Seed = int64(seed + 1) // distinct jitter stream per worker
	consec := 0
	for {
		select {
		case <-co.allDone:
			return
		case <-co.ctx.Done():
			return
		case g := <-co.queue:
			if co.dispatch(worker, g) {
				consec = 0
				continue
			}
			consec++
			if consec >= co.cfg.FailThreshold {
				co.stats.quarantines.Add(1)
				co.events.add(EvQuarantine, worker, "", fmt.Sprintf("%d consecutive failures", consec), nil)
				if co.probe(worker) {
					consec = 0
					co.stats.rejoins.Add(1)
					co.events.add(EvRejoin, worker, "", "", nil)
					continue
				}
				co.stats.dead.Add(1)
				co.events.add(EvDead, worker, "", "health probes exhausted", nil)
				if co.live.Add(-1) == 0 && co.remaining.Load() > 0 {
					co.fail(ErrNoWorkers)
				}
				return
			}
			if d := backoff.Backoff(consec - 1); d > 0 {
				select {
				case <-time.After(d):
				case <-co.ctx.Done():
					return
				}
			}
		}
	}
}

// dispatch runs one slice of group g on worker and reports whether the
// worker behaved (true resets the failure streak). The group itself is
// always accounted for exactly once: completed, requeued with progress,
// or requeued after reclaim.
func (co *coordinator) dispatch(worker string, g *group) bool {
	g.mu.Lock()
	if g.done {
		g.mu.Unlock()
		return true
	}
	epoch := g.epoch
	req := serve.ConeRequest{
		Bench:      co.bench,
		Name:       co.meta.circuit,
		Outputs:    g.outputs,
		Criterion:  co.criterion,
		Sort:       co.sort,
		Checkpoint: g.checkpoint,
		SliceMS:    co.cfg.SliceMS,
		Workers:    co.cfg.EnumWorkers,
	}
	g.mu.Unlock()

	// The leases are journaled before the dispatch leaves: recovery reads
	// the (cone, epoch) pairs as a floor for its own epochs, and the
	// audit requires every merged answer to have had one.
	deadline := time.Now().Add(co.cfg.DispatchTimeout).UnixMilli()
	leases := make([]any, len(g.jobs))
	for i, j := range g.jobs {
		leases[i] = leaseRecord{Cone: j.idx, Name: j.name, Worker: worker, Epoch: epoch, DeadlineMS: deadline}
	}
	if !co.journalAppend(journal.KindLease, leases...) {
		return false
	}
	if co.killCheck("mid-dispatch") {
		// Died with the leases journaled but the dispatch never sent: the
		// recovered coordinator re-leases the cones under a higher epoch.
		return false
	}

	co.stats.dispatches.Add(1)
	co.events.add(EvDispatch, worker, g.label, "", map[string]int64{"cones": int64(len(g.jobs))})

	// The dispatch runs detached so an arbitrarily late reply cannot
	// wedge the loop; the reply channel is buffered, so the goroutine
	// never leaks even if nobody is left reading.
	type reply struct {
		ans *serve.ConeAnswer
		err error
	}
	ch := make(chan reply, 1)
	co.bgWG.Add(1)
	go func() {
		defer co.bgWG.Done()
		ans, err := co.cfg.Transport.Dispatch(co.ctx, worker, req)
		ch <- reply{ans, err}
	}()

	timer := time.NewTimer(co.cfg.DispatchTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return co.dispatchError(worker, g, epoch, r.err)
		}
		return co.apply(worker, g, epoch, r.ans)
	case <-timer.C:
		// Abandon: advance the epoch so the in-flight dispatch's eventual
		// reply is provably stale, reclaim the group, and leave a reaper
		// to log the zombie.
		g.mu.Lock()
		g.epoch++
		bumped := g.epoch
		g.mu.Unlock()
		// Bump-then-journal is safe here (unlike every other record, which
		// flushes before its side effect): epochs only gate liveness inside
		// this coordinator's life, and recovery re-bumps past the journaled
		// maximum regardless, so a crash between the bump and the append
		// cannot admit a zombie.
		epochs := make([]any, len(g.jobs))
		for i, j := range g.jobs {
			epochs[i] = epochRecord{Cone: j.idx, Epoch: bumped}
		}
		co.journalAppend(journal.KindEpoch, epochs...)
		co.stats.abandoned.Add(1)
		co.events.add(EvAbandon, worker, g.label, co.cfg.DispatchTimeout.String(), nil)
		co.requeue(g)
		co.bgWG.Add(1)
		go func() {
			defer co.bgWG.Done()
			r := <-ch
			co.stats.zombies.Add(1)
			detail := "late reply"
			if r.err != nil {
				detail = "late error: " + r.err.Error()
			}
			co.events.add(EvZombie, worker, g.label, detail, nil)
		}()
		return false
	case <-co.ctx.Done():
		return false
	}
}

// apply accounts one answered dispatch. The epoch check discards
// replies from abandoned dispatches; the done check makes completion
// at-most-once even if a group was ever dispatched twice.
func (co *coordinator) apply(worker string, g *group, epoch uint64, ans *serve.ConeAnswer) bool {
	g.mu.Lock()
	if g.done || g.epoch != epoch {
		g.mu.Unlock()
		co.stats.zombies.Add(1)
		co.events.add(EvZombie, worker, g.label, "stale epoch", nil)
		return true
	}
	if len(ans.Cones) != len(g.jobs) {
		g.mu.Unlock()
		return co.dispatchError(worker, g, epoch, fmt.Errorf("%w: %d cone answers for a group of %d",
			ErrCorruptResponse, len(ans.Cones), len(g.jobs)))
	}
	switch ans.Status {
	case "complete":
		// Flush the answers before marking the cones done: if we die
		// between the append and the merge, recovery retires the cones
		// from the journal; if we die before the append, recovery
		// re-dispatches them. Either way each answer is merged exactly
		// once. A fenced append (ErrStaleCoordinator) lands here too — the
		// cones stay not-done, so a superseded primary can never
		// double-merge them.
		recs := make([]any, len(g.jobs))
		for i, j := range g.jobs {
			a := ans.Cones[i]
			if a == nil || a.Status != "complete" || !a.Verify() {
				g.mu.Unlock()
				return co.dispatchError(worker, g, epoch, fmt.Errorf("%w: cone %s answer incomplete or unsealed", ErrCorruptResponse, j.name))
			}
			recs[i] = answerRecord{
				Cone: j.idx, Name: j.name, Epoch: epoch,
				Source: answerSourceWorker, Worker: worker, Answer: a,
			}
		}
		if !co.journalAppend(journal.KindAnswer, recs...) {
			g.mu.Unlock()
			return false
		}
		if co.killCheck("mid-merge") {
			g.mu.Unlock()
			return false
		}
		g.done = true
		g.slices++
		for i, j := range g.jobs {
			j.done, j.final = true, ans.Cones[i]
			j.slices, j.restarts = g.slices, g.restarts
		}
		g.mu.Unlock()
		for _, j := range g.jobs {
			a := j.final
			co.events.add(EvComplete, worker, j.name, fmt.Sprintf("selected=%d rd=%s", a.Selected, a.RD),
				map[string]int64{"selected": a.Selected, "segments": a.Segments, "pruned": a.Pruned})
			if co.cfg.Store != nil && j.storeKey != "" && co.writer[j.storeKey] == j.idx {
				// Best effort: a lost write costs the next run dispatches, not
				// correctness.
				if err := co.cfg.Store.PutCone(j.storeKey, &store.ConeRecord{
					Cone:       j.name,
					TotalPaths: a.TotalPaths,
					Selected:   a.Selected,
					RD:         a.RD,
					Segments:   a.Segments,
					Pruned:     a.Pruned,
				}); err != nil {
					co.events.add(EvFailure, worker, j.name, "store write: "+err.Error(), nil)
				}
			}
		}
		co.groupDone(g)
		return true
	case "deadline", "canceled":
		if len(ans.Checkpoint) == 0 {
			g.mu.Unlock()
			return co.dispatchError(worker, g, epoch, fmt.Errorf("%w: interrupted slice without checkpoint", ErrCorruptResponse))
		}
		if !co.journalAppend(journal.KindSlice, sliceRecord{
			Cones: g.outputs, Epoch: epoch, Checkpoint: ans.Checkpoint,
		}) {
			g.mu.Unlock()
			return false
		}
		g.checkpoint = ans.Checkpoint
		g.slices++
		g.mu.Unlock()
		co.stats.slices.Add(1)
		co.events.add(EvSlice, worker, g.label, "checkpoint streamed",
			map[string]int64{"selected": ans.Selected, "segments": ans.Segments, "pruned": ans.Pruned})
		co.requeue(g)
		return true
	default:
		g.mu.Unlock()
		return co.dispatchError(worker, g, epoch, fmt.Errorf("%w: unknown slice status %q", ErrCorruptResponse, ans.Status))
	}
}

// dispatchError reclaims the group after a failed dispatch and picks
// the recovery: 422 drops the checkpoint and restarts the group, other
// 4xx is a permanent misconfiguration that fails the run, everything
// else (network, 429, 5xx, corruption) is transient and counts against
// the worker's breaker.
func (co *coordinator) dispatchError(worker string, g *group, epoch uint64, err error) bool {
	var remote *RemoteError
	if errors.As(err, &remote) {
		switch {
		case remote.Code == 422:
			g.mu.Lock()
			if !g.done && g.epoch == epoch {
				g.checkpoint = nil
				g.restarts++
			}
			g.mu.Unlock()
			co.stats.restarts.Add(1)
			co.events.add(EvRestart, worker, g.label, err.Error(), nil)
			co.requeue(g)
			return true // the worker is healthy; it is our checkpoint that was bad
		case remote.Code >= 400 && remote.Code < 500 && remote.Code != 429:
			co.fail(fmt.Errorf("fleet: cones %s permanently rejected: %w", g.label, err))
			co.requeue(g)
			return false
		}
	}
	co.stats.failures.Add(1)
	co.events.add(EvFailure, worker, g.label, err.Error(), nil)
	co.requeue(g)
	return false
}

// probe drives the quarantined worker's health checks under the Probe
// policy; true means the worker may take work again.
func (co *coordinator) probe(worker string) bool {
	p := co.cfg.Probe
	err := p.Do(co.ctx, func(int) error {
		ctx, cancel := context.WithTimeout(co.ctx, co.cfg.ProbeTimeout)
		defer cancel()
		return co.cfg.Transport.Healthz(ctx, worker)
	})
	return err == nil
}

// merge folds the per-cone answers, in cone order, into the run result
// and journals the seal.
func (co *coordinator) merge(start time.Time) (*Result, error) {
	if co.killCheck("pre-seal") {
		// Every answer is journaled; only the seal is missing. A resumed
		// journal merges without a single dispatch.
		return nil, co.failErr
	}
	res := &Result{
		Circuit:   co.meta.circuit,
		Heuristic: co.meta.heuristic,
		Criterion: co.criterion,
		Total:     new(big.Int),
		RD:        new(big.Int),
		Duration:  time.Since(start),
	}
	for _, j := range co.jobs {
		a := j.final
		if a == nil {
			return nil, fmt.Errorf("fleet: cone %s finished without an answer", j.name)
		}
		if err := addDecimal(res.Total, a.TotalPaths); err != nil {
			return nil, fmt.Errorf("fleet: cone %s: %v", j.name, err)
		}
		if err := addDecimal(res.RD, a.RD); err != nil {
			return nil, fmt.Errorf("fleet: cone %s: %v", j.name, err)
		}
		res.Selected += a.Selected
		res.Segments += a.Segments
		res.Pruned += a.Pruned
		res.PerCone = append(res.PerCone, ConeResult{
			Name: j.name, Answer: a, Slices: j.slices, Restarts: j.restarts,
		})
	}
	res.TotalStr = res.Total.String()
	res.RDStr = res.RD.String()
	if co.jw != nil {
		ok := co.journalAppend(journal.KindSeal, sealRecord{
			Circuit:    co.meta.circuit,
			TotalPaths: res.TotalStr,
			Selected:   res.Selected,
			RD:         res.RDStr,
			Segments:   res.Segments,
			Pruned:     res.Pruned,
			Cones:      len(co.jobs),
		})
		if !ok {
			// A merge a fenced coordinator cannot journal is a merge it must
			// not report: the promoted term owns the job now.
			return nil, co.failErr
		}
		co.events.add(EvJournalSeal, "", "", "", map[string]int64{
			"bytes": co.jw.Bytes(), "records": int64(co.jw.Seq()),
		})
	}
	res.Stats = Stats{
		Cones:          len(co.jobs),
		Dispatches:     co.stats.dispatches.Load(),
		Slices:         co.stats.slices.Load(),
		Failures:       co.stats.failures.Load(),
		Abandoned:      co.stats.abandoned.Load(),
		ZombieDiscards: co.stats.zombies.Load(),
		Restarts:       co.stats.restarts.Load(),
		Quarantines:    co.stats.quarantines.Load(),
		Rejoins:        co.stats.rejoins.Load(),
		DeadWorkers:    co.stats.dead.Load(),
		StoreHits:      co.stats.storeHits.Load(),
		JournalRetired: co.stats.retired.Load(),
		Fenced:         co.stats.fenced.Load(),
	}
	res.Events = co.events.snapshot()
	return res, nil
}

// storedConeAnswer looks one cone up in the result store and, on a
// valid hit, synthesizes the sealed complete ConeAnswer a worker would
// have returned. Any store failure — miss, unreadable entry, corrupt
// entry, unparsable counters — returns nil and the cone is dispatched
// normally: the store can save dispatches, never corrupt a run.
func storedConeAnswer(st *store.Store, key, name string, cr core.Criterion) *serve.ConeAnswer {
	rec, err := st.GetCone(key)
	if err != nil {
		return nil
	}
	if _, ok := new(big.Int).SetString(rec.TotalPaths, 10); !ok {
		return nil
	}
	if _, ok := new(big.Int).SetString(rec.RD, 10); !ok {
		return nil
	}
	ans := &serve.ConeAnswer{
		Status:     "complete",
		Circuit:    name,
		Criterion:  cr.String(),
		TotalPaths: rec.TotalPaths,
		Selected:   rec.Selected,
		RD:         rec.RD,
		Segments:   rec.Segments,
		Pruned:     rec.Pruned,
	}
	ans.Seal()
	return ans
}

// addDecimal folds a worker's decimal counter into sum.
func addDecimal(sum *big.Int, s string) error {
	if s == "" {
		return nil
	}
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return fmt.Errorf("bad decimal counter %q", s)
	}
	sum.Add(sum, v)
	return nil
}
