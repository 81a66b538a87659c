// Package serve turns the RD identification pipeline into a resilient
// long-running service: a bounded job queue with admission control and
// load shedding, a memory budget that steps running jobs down a
// graceful-degradation ladder instead of OOM-killing them, and per-job
// isolation (panic containment, deadlines, checkpoint spill/resume) so
// one bad job never takes the process down.
//
// Two priority lanes keep cheap requests responsive under heavy load:
// path counting (linear time) runs synchronously on its own semaphore,
// while Identify/certificate jobs queue for a fixed pool of runners.
// When the queue is full the service sheds load immediately — a typed
// ErrSaturated carrying a Retry-After hint, never an unbounded wait.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/store"
	"rdfault/internal/telemetry"
)

// Config sizes the service. Zero values take the documented defaults.
type Config struct {
	// QueueDepth bounds the heavy-lane job queue (default 16). A full
	// queue sheds load with ErrSaturated instead of buffering unboundedly.
	QueueDepth int
	// MaxInFlight is the number of heavy jobs running concurrently
	// (default 2 — each job already parallelizes internally).
	MaxInFlight int
	// MaxCheapInFlight bounds the synchronous counting lane (default 8).
	MaxCheapInFlight int
	// MaxConeInFlight bounds the synchronous cone-slice lane used by the
	// fleet coordinator (default 2).
	MaxConeInFlight int
	// MemoryBudget is the declared-bytes ledger shared by all running
	// jobs (default 256 MiB); see Budget.
	MemoryBudget int64
	// MaxGates and MaxRequestBytes are per-request admission limits
	// (defaults 200000 gates, 8 MiB of netlist).
	MaxGates        int
	MaxRequestBytes int64
	// Workers is the enumeration worker count per heavy job (default
	// GOMAXPROCS).
	Workers int
	// DefaultTimeout bounds a job that asked for none (default 0 = no
	// bound; the ladder still degrades on explicit request timeouts).
	DefaultTimeout time.Duration
	// RetryAfter is the backoff hint attached to shed load (default 1s).
	RetryAfter time.Duration
	// SpillDir receives checkpoints of evicted jobs (default os.TempDir()).
	SpillDir string
	// Store, when non-nil, serves the fast rung through the
	// content-addressed result store: resubmissions (byte-identical or
	// relabeled) are answered from their stored counters, ECO revisions
	// re-enumerate only their changed cones, and every fresh result is
	// persisted for the next job, replica or process. The answer's Store
	// field labels the outcome (hit/delta/miss).
	Store *store.Store
	// Telemetry, when non-nil, receives the structured lifecycle event
	// log (job submitted/started/done/failed, shed, budget evictions,
	// drain). Progress snapshots stream over /v1/jobs/{id}/events and
	// never enter this log, so with a frozen faultinject clock the log
	// of a serialized run is byte-deterministic.
	Telemetry *telemetry.Log
	// StreamInterval paces the SSE progress stream (default 100ms).
	StreamInterval time.Duration
	// StreamWriteTimeout bounds each SSE write; a subscriber that cannot
	// keep up is disconnected instead of wedging the handler (default 5s).
	StreamWriteTimeout time.Duration
	// FollowerJournal, when set, opens the hot-standby follower lane:
	// POST /v1/journal appends a fleet coordinator's shipped journal
	// records to this file (created if missing; the directory must
	// exist), fenced by term. A standby promotes by resuming from this
	// file with fleet.Resume.
	FollowerJournal string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxCheapInFlight <= 0 {
		c.MaxCheapInFlight = 8
	}
	if c.MaxConeInFlight <= 0 {
		c.MaxConeInFlight = 2
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 200000
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 100 * time.Millisecond
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 5 * time.Second
	}
	return c
}

// Typed service errors; match with errors.Is.
var (
	// ErrSaturated: the lane's capacity is exhausted; retry later. The
	// concrete *SaturatedError carries the Retry-After hint.
	ErrSaturated = errors.New("serve: saturated")
	// ErrTooLarge: the request exceeds an admission limit.
	ErrTooLarge = errors.New("serve: request exceeds admission limits")
	// ErrBadRequest: the request is malformed (unparsable netlist,
	// unknown heuristic or tier).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrShutdown: the server is draining; no new work is accepted and
	// unfinished jobs fail with this.
	ErrShutdown = errors.New("serve: shutting down")
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("serve: no such job")
	// ErrNotDone: the job has not produced its answer yet.
	ErrNotDone = errors.New("serve: job not done")
)

// SaturatedError is load shedding with a backoff hint.
type SaturatedError struct {
	Lane       string
	RetryAfter time.Duration
}

// Error names the saturated lane.
func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: %s lane saturated, retry after %v", e.Lane, e.RetryAfter)
}

// Unwrap matches errors.Is(err, ErrSaturated).
func (e *SaturatedError) Unwrap() error { return ErrSaturated }

// Request is one identification job submission.
type Request struct {
	// Bench is the circuit netlist in .bench format.
	Bench string
	// Name labels the circuit (default "job").
	Name string
	// Heuristic is fus|heu1|heu2|inverse|pin (default heu2).
	Heuristic string
	// Tier is the requested ladder rung: exact|fast|certificate|count
	// (default fast). The service may serve a lower rung; the answer
	// says which and why.
	Tier string
	// Timeout bounds the job (0 = Config.DefaultTimeout).
	Timeout time.Duration
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Job is one queued or running identification request.
type Job struct {
	// ID is the job's handle, sequential per server ("job-1", ...).
	ID string

	// circuit is the parsed submission, released when the job finishes
	// (a served job is kept for lookups, its netlist is not); name
	// outlives it.
	circuit   *circuit.Circuit
	name      string
	heuristic core.Heuristic
	tier      Tier
	timeout   time.Duration

	// tracker carries the job's live enumeration counters; done closes
	// when the job reaches a terminal state (Wait and the SSE stream
	// block on it).
	tracker *core.Tracker
	done    chan struct{}

	mu     sync.Mutex
	state  JobState
	answer *Answer
	err    error
	notes  []string
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *Job) finish(a *Answer, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		j.answer = a
	}
	j.circuit = nil
	if j.done != nil {
		close(j.done)
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress snapshots the job's live enumeration counters (zero while
// queued, exact once the enumeration pass completes).
func (j *Job) Progress() core.Progress { return j.tracker.Snapshot() }

// Wait blocks until the job finishes (returning its answer or failure
// error) or ctx fires.
func (j *Job) Wait(ctx context.Context) (*Answer, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// note records an operational footnote (spill failure, corrupt
// checkpoint) surfaced in the job's status.
func (j *Job) note(s string) {
	j.mu.Lock()
	j.notes = append(j.notes, s)
	j.mu.Unlock()
}

// Info is a point-in-time snapshot of a job. Progress carries the live
// enumeration counters (additive field: old clients ignore it).
type Info struct {
	ID       string         `json:"id"`
	State    JobState       `json:"state"`
	Circuit  string         `json:"circuit"`
	Tier     string         `json:"tier_requested"`
	Progress *core.Progress `json:"progress,omitempty"`
	Error    string         `json:"error,omitempty"`
	Notes    []string       `json:"notes,omitempty"`
}

// Info snapshots the job.
func (j *Job) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := Info{
		ID:      j.ID,
		State:   j.state,
		Circuit: j.name,
		Tier:    j.tier.String(),
		Notes:   append([]string(nil), j.notes...),
	}
	if j.tracker != nil {
		p := j.tracker.Snapshot()
		in.Progress = &p
	}
	if j.err != nil {
		in.Error = j.err.Error()
	}
	return in
}

// Result returns the job's answer, ErrNotDone while it is in flight, or
// the job's failure error.
func (j *Job) Result() (*Answer, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.answer, nil
	case StateFailed:
		return nil, j.err
	}
	return nil, ErrNotDone
}

// Server is the RD identification service.
type Server struct {
	cfg    Config
	budget *Budget

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue    chan *Job
	cheapSem chan struct{}
	coneSem  chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64
	closed bool

	running      atomic.Int64
	done         atomic.Int64
	coneInflight atomic.Int64
	shed         atomic.Int64
	draining     atomic.Bool

	// unfinished counts heavy-lane jobs from their accepted queue send to
	// their terminal state. A send can hand a job straight to a waiting
	// runner, so neither the queue length nor running sees it in between;
	// Drain waits on this count instead.
	unfinished atomic.Int64

	telem    *telemetry.Log
	metrics  *serveMetrics
	follower *followerState

	wg sync.WaitGroup
}

// New starts a server with cfg's limits and MaxInFlight runner
// goroutines. Close releases them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		budget:     NewBudget(cfg.MemoryBudget),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		cheapSem:   make(chan struct{}, cfg.MaxCheapInFlight),
		coneSem:    make(chan struct{}, cfg.MaxConeInFlight),
		jobs:       make(map[string]*Job),
		telem:      cfg.Telemetry,
	}
	s.metrics = newServeMetrics(s)
	if cfg.FollowerJournal != "" {
		fs, err := newFollowerState(cfg.FollowerJournal)
		if err != nil {
			// The lane stays disabled (POST /v1/journal answers 404); the
			// server still serves. A standby operator sees the event and a
			// zero FollowerInfo.
			s.emit("journal.error", "", err.Error(), nil)
		} else {
			s.follower = fs
		}
	}
	if cfg.Store != nil && cfg.Telemetry != nil {
		// Interleave store.hit/miss/delta/corrupt events into the server's
		// lifecycle log.
		cfg.Store.SetTelemetry(cfg.Telemetry)
	}
	s.budget.onEvict = func(bytes int64) {
		s.metrics.budgetEvictions.Inc()
		s.emit("budget.evict", "", "", map[string]int64{"bytes": bytes})
	}
	for i := 0; i < cfg.MaxInFlight; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// Budget exposes the memory ledger (for the memory-pressure hook and
// health reporting).
func (s *Server) Budget() *Budget { return s.budget }

// Metrics exposes the server's Prometheus registry, for embedding the
// service into a process that serves its own /metrics endpoint.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// emit writes one lifecycle event to the configured telemetry log
// (a safe no-op when none is configured).
func (s *Server) emit(kind, job, detail string, fields map[string]int64) {
	s.telem.Emit(telemetry.Event{
		Source: "serve", Kind: kind, Job: job, Detail: detail, Fields: fields,
	})
}

// admit parses and size-checks a netlist.
func (s *Server) admit(name, bench string) (*circuit.Circuit, error) {
	if int64(len(bench)) > s.cfg.MaxRequestBytes {
		return nil, fmt.Errorf("%w: netlist is %d bytes (limit %d)",
			ErrTooLarge, len(bench), s.cfg.MaxRequestBytes)
	}
	if name == "" {
		name = "job"
	}
	c, err := circuit.ParseBench(name, strings.NewReader(bench))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if c.NumGates() > s.cfg.MaxGates {
		return nil, fmt.Errorf("%w: circuit has %d gates (limit %d)",
			ErrTooLarge, c.NumGates(), s.cfg.MaxGates)
	}
	return c, nil
}

// Submit admits a job into the heavy lane. It never blocks: a full
// queue returns *SaturatedError immediately (load shedding), a bad or
// oversized request returns ErrBadRequest/ErrTooLarge, and an accepted
// job comes back queued with its ID assigned.
func (s *Server) Submit(req Request) (*Job, error) {
	h, err := core.ParseHeuristic(cmp.Or(req.Heuristic, "heu2"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	tier := TierFast
	if req.Tier != "" {
		if tier, err = ParseTier(req.Tier); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	c, err := s.admit(req.Name, req.Bench)
	if err != nil {
		return nil, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}

	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		circuit:   c,
		name:      c.Name(),
		heuristic: h,
		tier:      tier,
		timeout:   timeout,
		tracker:   core.NewTracker(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	s.jobs[j.ID] = j
	// The submitted event precedes the queue send (and is emitted under
	// s.mu, so event order matches ID order); a shed submission keeps its
	// burned ID so the event log stays unambiguous.
	s.metrics.jobsSubmitted.Inc()
	s.emit("job.submitted", j.ID, j.tier.String(), nil)
	s.unfinished.Add(1)
	select {
	case s.queue <- j:
		s.mu.Unlock()
		return j, nil
	default:
		s.unfinished.Add(-1)
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		s.shed.Add(1)
		s.metrics.shed.With("identify").Add(1)
		s.emit("job.shed", j.ID, "identify", nil)
		return nil, &SaturatedError{Lane: "identify", RetryAfter: s.cfg.RetryAfter}
	}
}

// Job looks up a submitted job by ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Count is the cheap lane: a synchronous linear-time path count, capped
// by its own semaphore so heavy jobs can never starve it (and it can
// never starve them).
func (s *Server) Count(name, bench string) (*Answer, error) {
	select {
	case s.cheapSem <- struct{}{}:
	default:
		s.shed.Add(1)
		s.metrics.shed.With("count").Add(1)
		s.emit("job.shed", "", "count", nil)
		return nil, &SaturatedError{Lane: "count", RetryAfter: s.cfg.RetryAfter}
	}
	defer func() { <-s.cheapSem }()
	if s.baseCtx.Err() != nil || s.draining.Load() {
		return nil, ErrShutdown
	}
	c, err := s.admit(name, bench)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resv, err := s.budget.Reserve(estimateBytes(c, TierCount, 1))
	if err != nil {
		return nil, err
	}
	defer resv.Release()
	total := analysis.For(c).CopyLogical()
	return &Answer{
		Tier:       TierCount.String(),
		TierReason: "requested",
		Circuit:    c.Name(),
		TotalPaths: total.String(),
		RD:         "0",
		DurationMS: time.Since(start).Milliseconds(),
	}, nil
}

// runner is one heavy-lane worker goroutine.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		case <-s.baseCtx.Done():
			return
		}
	}
}

// runJob executes one job with full isolation: its own context and
// deadline, panic containment (a panic that escapes even the
// enumeration's own worker isolation fails this job, not the process),
// and the degradation ladder.
func (s *Server) runJob(j *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	defer s.done.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(j, nil, fmt.Errorf("serve: job panicked: %v", r), start)
		}
	}()
	j.setState(StateRunning)
	s.emit("job.start", j.ID, j.tier.String(), nil)

	ctx := s.baseCtx
	if j.timeout > 0 {
		// The deadline is anchored at the injectable clock so chaos tests
		// can skew it; a skewed clock degrades the job, never corrupts it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, faultinject.Now(faultinject.PointClock).Add(j.timeout))
		defer cancel()
	}
	ans, err := s.runLadder(ctx, j)
	s.finishJob(j, ans, err, start)
}

// finishJob records a job's terminal event and metrics, then finishes
// it — in that order, so a waiter unblocked by finish always observes
// the terminal event already in the log (which is what keeps a
// serialized submit→wait sequence byte-deterministic). The done-event
// counters come from the tracker's final snapshot: the streamed numbers
// and the logged numbers are the same numbers.
func (s *Server) finishJob(j *Job, ans *Answer, err error, start time.Time) {
	s.metrics.jobSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.metrics.jobsCompleted.With("failed").Add(1)
		s.emit("job.failed", j.ID, err.Error(), nil)
	} else {
		s.metrics.jobsCompleted.With("done").Add(1)
		s.metrics.tierServed.With(ans.Tier).Add(1)
		p := j.tracker.Snapshot()
		s.emit("job.done", j.ID, ans.Tier, map[string]int64{
			"selected": p.Selected, "segments": p.Segments, "pruned": p.Pruned,
		})
	}
	j.finish(ans, err)
	s.unfinished.Add(-1)
}

// Health is the service's self-report. The original fields are stable;
// InFlight/Shed/BudgetRemaining were added later and are additive (old
// clients simply ignore them).
type Health struct {
	Status      string `json:"status"`
	Queued      int    `json:"queued"`
	Running     int64  `json:"running"`
	JobsDone    int64  `json:"jobs_done"`
	BudgetUsed  int64  `json:"budget_used"`
	BudgetTotal int64  `json:"budget_total"`
	// InFlight counts work running right now across every lane (heavy
	// jobs plus synchronous cone slices).
	InFlight int64 `json:"in_flight"`
	// Shed counts requests refused with ErrSaturated since start.
	Shed int64 `json:"shed"`
	// BudgetRemaining is BudgetTotal - BudgetUsed (clamped at 0).
	BudgetRemaining int64 `json:"budget_remaining"`
}

// Health snapshots queue depth, in-flight work and the memory ledger.
func (s *Server) Health() Health {
	st := "ok"
	if s.draining.Load() || s.baseCtx.Err() != nil {
		st = "draining"
	}
	used, total := s.budget.Used(), s.budget.Total()
	rem := total - used
	if rem < 0 {
		rem = 0
	}
	return Health{
		Status:          st,
		Queued:          len(s.queue),
		Running:         s.running.Load(),
		JobsDone:        s.done.Load(),
		BudgetUsed:      used,
		BudgetTotal:     total,
		InFlight:        s.running.Load() + s.coneInflight.Load(),
		Shed:            s.shed.Load(),
		BudgetRemaining: rem,
	}
}

// Drain is the graceful half of shutdown: intake stops immediately
// (Submit, Count and Cone answer ErrShutdown → 503 with Retry-After),
// then in-flight and queued work gets up to timeout to finish before
// Close cancels whatever is left. A job canceled at the deadline is not
// lost: the identify ladder spills its checkpoint to SpillDir (noted on
// the job), an interrupted cone slice answers its caller with a
// resumable checkpoint, and queued jobs that never got to run fail
// typed with ErrShutdown. timeout <= 0 degenerates to Close.
func (s *Server) Drain(timeout time.Duration) {
	// Only the draining flag stops intake here; Close below still takes
	// its full path (cancel + wait) because closed is not yet set. Submit
	// checks the flag and counts its job under s.mu, so once the flag is
	// set under it every accepted job is already counted in unfinished.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.emit("drain.begin", "", timeout.String(), nil)

	deadline := faultinject.Now(faultinject.PointClock).Add(timeout)
	for timeout > 0 && time.Now().Before(deadline) {
		if s.unfinished.Load() == 0 && s.coneInflight.Load() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Close()
}

// Draining reports whether Drain has stopped intake.
func (s *Server) Draining() bool { return s.draining.Load() || s.baseCtx.Err() != nil }

// Close drains the server: intake stops (Submit returns ErrShutdown),
// running jobs are canceled and fail typed, queued jobs fail without
// running, and all runner goroutines exit before Close returns.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()

	s.baseCancel()
	s.wg.Wait()
	if s.follower != nil {
		s.follower.close()
	}
	for {
		select {
		case j := <-s.queue:
			// Killed while queued: terminal event first, then finish, like
			// every other path to a terminal state.
			s.metrics.jobsCompleted.With("failed").Add(1)
			s.emit("job.failed", j.ID, ErrShutdown.Error(), nil)
			j.finish(nil, ErrShutdown)
			s.unfinished.Add(-1)
		default:
			s.emit("server.closed", "", "", nil)
			return
		}
	}
}
