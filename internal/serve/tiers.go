package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
)

// Tier is one rung of the graceful-degradation ladder, ordered from the
// most expensive answer to the cheapest. Every rung is sound with
// respect to the rung above it because all rungs of one job share the
// same input sort σ: LP ⊆ LP^sup(σ) for any sort, so the RD set served
// by a lower rung is always a subset of the exact RD set — degradation
// can lose precision (fewer paths proven RD) but never correctness (a
// path falsely declared RD).
type Tier uint8

const (
	// TierExact: SAT-verified Identify; the served RD set is exactly the
	// complement of LP.
	TierExact Tier = iota
	// TierFast: the approximate Identify of the paper; RD is the
	// complement of LP^sup(σ^π).
	TierFast
	// TierCertificate: serial CollectRDSegments; same RD set as TierFast
	// (same sort), delivered as a compact prime-segment certificate with
	// bounded memory (no work-stealing deques, no SAT).
	TierCertificate
	// TierCount: path counting only; the served RD set is empty
	// (trivially sound) and the answer is just |LP(C)|.
	TierCount
	numTiers
)

var tierNames = [numTiers]string{"exact", "fast", "certificate", "count"}

// String names the tier as it appears in responses.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// ParseTier maps a request string to a ladder rung.
func ParseTier(s string) (Tier, error) {
	for t, name := range tierNames {
		if s == name {
			return Tier(t), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown tier %q (want exact|fast|certificate|count)", s)
}

// estimateBytes is the declared memory model of each tier: the bytes a
// job reserves from the Budget before running that rung. It is a
// deterministic, documented estimate (per-worker DFS state, implication
// engines, SAT clause arena for the exact tier), not a malloc
// measurement — strictly decreasing down the ladder so stepping down
// always asks the budget for less.
func estimateBytes(c *circuit.Circuit, t Tier, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	g := int64(c.NumGates())
	l := int64(c.NumLeads())
	base := int64(64<<10) + 96*g + 16*l // counts, levels, fanout tables
	engine := 256*g + 16*l              // one serial implication engine + frontier
	switch t {
	case TierCount:
		return base
	case TierCertificate:
		return base + engine
	case TierFast:
		return base + engine + int64(workers)*(192*g+32*l)
	default: // TierExact
		return base + engine + int64(workers)*(192*g+32*l+768*g)
	}
}

// Answer is the served result of a job, labeled with the tier that
// produced it and why that tier was chosen.
type Answer struct {
	// Tier is the ladder rung that produced this answer.
	Tier string `json:"tier"`
	// TierReason is "requested" when the job ran at its requested rung,
	// or a "degraded: ..." chain naming every step down and its cause.
	TierReason string `json:"tier_reason"`
	// Resumed is true when the rung resumed from a checkpoint spilled by
	// an evicted higher rung instead of restarting.
	Resumed bool `json:"resumed,omitempty"`
	// Store labels a store-served fast answer: "hit" (served verbatim,
	// zero enumeration), "delta" (changed cones re-enumerated, the rest
	// reused) or "miss" (computed in full, persisted for next time).
	// Empty when the job ran without a store.
	Store     string `json:"store,omitempty"`
	Circuit   string `json:"circuit"`
	Heuristic string `json:"heuristic,omitempty"`
	// Exact is true only for TierExact answers (SAT-verified RD set).
	Exact bool `json:"exact,omitempty"`
	// TotalPaths is |LP(C)| as a decimal string (it overflows int64 on
	// real circuits).
	TotalPaths string `json:"total_paths"`
	// Selected is the size of the served selected set (paths still to be
	// delay-tested); 0 for TierCount.
	Selected int64 `json:"selected,omitempty"`
	// RD is the number of paths this answer proves robust dependent, as
	// a decimal string; "0" for TierCount (empty RD set).
	RD        string  `json:"rd,omitempty"`
	RDPercent float64 `json:"rd_percent,omitempty"`
	// Segments is the prime-segment count for TierCertificate answers.
	Segments   int   `json:"segments,omitempty"`
	DurationMS int64 `json:"duration_ms"`
}

// stepDown is a tier failure the ladder answers by degrading one rung;
// any other error aborts the job.
type stepDown struct {
	cause error
	note  string
}

func (e *stepDown) Error() string { return fmt.Sprintf("serve: step down: %s", e.note) }
func (e *stepDown) Unwrap() error { return e.cause }

// downNote classifies a tier failure for the TierReason chain.
func downNote(err error) string {
	switch {
	case errors.Is(err, ErrBudget):
		return "memory budget"
	case errors.Is(err, core.ErrWorkerPanic):
		return "worker panic"
	case errors.Is(err, core.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, faultinject.ErrInjected):
		return "injected fault"
	}
	return "error"
}

// stepDownOn classifies a rung's failure. The memory budget (a denied
// reservation, or an eviction mid-run), a deadline, a cancellation and a
// worker panic step the job down a rung, unless the server is shutting
// down; any other error fails the job.
func (s *Server) stepDownOn(err error, evicted bool) error {
	switch {
	case evicted:
		return &stepDown{cause: ErrBudget, note: "memory budget"}
	case errors.Is(err, ErrBudget):
		return &stepDown{cause: err, note: "memory budget"}
	case errors.Is(err, core.ErrDeadline) || errors.Is(err, core.ErrCanceled),
		errors.Is(err, core.ErrWorkerPanic):
		if s.baseCtx.Err() != nil {
			return ErrShutdown
		}
		return &stepDown{cause: err, note: downNote(err)}
	}
	return err
}

// hold is one run's budget reservation. Its context is canceled when the
// budget evicts the reservation, and evicted records that it was.
type hold struct {
	ctx     context.Context
	evicted atomic.Bool
	release func()
}

// reserve claims n bytes of the budget for one run under ctx. The run
// must stop (checkpoint or step down) once hold.ctx is done; release
// cancels that context, waits for the eviction watcher and returns the
// bytes.
func (s *Server) reserve(ctx context.Context, n int64) (*hold, error) {
	resv, err := s.budget.Reserve(n)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	h := &hold{ctx: ctx}
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-resv.Evicted():
			h.evicted.Store(true)
			cancel()
		case <-ctx.Done():
		}
	}()
	h.release = func() {
		cancel()
		<-watchDone
		resv.Release()
	}
	return h, nil
}

// runLadder executes j starting at its requested tier and walks down the
// ladder until a rung serves an answer. ctx is the job's context
// (deadline included); the server's base context aborts the whole job on
// shutdown.
func (s *Server) runLadder(ctx context.Context, j *Job) (*Answer, error) {
	var steps []string
	var spill string // checkpoint spilled by an evicted exact rung
	resumed := false
	defer func() {
		if spill != "" {
			os.Remove(spill)
		}
	}()
	for tier := j.tier; tier < numTiers; tier++ {
		if err := s.baseCtx.Err(); err != nil {
			return nil, ErrShutdown
		}
		ans, err := s.runTier(ctx, j, tier, &spill, &resumed)
		if err == nil {
			if len(steps) == 0 {
				if ans.TierReason == "" {
					// A store-served rung labels its own reason.
					ans.TierReason = "requested"
				}
			} else {
				ans.TierReason = "degraded: " + strings.Join(steps, "; ")
			}
			ans.Resumed = resumed && tier != j.tier
			return ans, nil
		}
		var sd *stepDown
		if !errors.As(err, &sd) {
			return nil, err
		}
		if tier == numTiers-1 {
			return nil, fmt.Errorf("serve: bottom of the ladder failed: %w", sd.cause)
		}
		steps = append(steps, fmt.Sprintf("%v->%v: %s", tier, tier+1, sd.note))
	}
	return nil, errors.New("serve: ladder exhausted") // unreachable
}

// runTier runs one rung. A returned *stepDown degrades the job; any
// other error fails it.
func (s *Server) runTier(ctx context.Context, j *Job, tier Tier, spill *string, resumed *bool) (*Answer, error) {
	switch tier {
	case TierFast:
		if s.cfg.Store != nil && *spill == "" {
			// No spilled checkpoint to resume: serve through the store.
			// (A spill means an evicted exact rung already paid for part of
			// the walk; finishing it beats even a store delta.)
			return s.runStoreFast(ctx, j)
		}
		return s.runIdentifyTier(ctx, j, tier, spill, resumed)
	case TierExact:
		return s.runIdentifyTier(ctx, j, tier, spill, resumed)
	case TierCertificate:
		return s.runCertTier(ctx, j)
	default:
		return s.runCountTier(ctx, j)
	}
}

// runIdentifyTier runs the full Identify pipeline (exact or fast). The
// tier's budget reservation can be revoked mid-run (Evicted); the rung
// then cancels its enumeration, spills the checkpoint (exact rung only —
// the fast rung below shares criterion and sort, so it may resume; the
// certificate rung below fast cannot, a partial segment list is not a
// certificate) and steps down.
func (s *Server) runIdentifyTier(ctx context.Context, j *Job, tier Tier, spill *string, resumed *bool) (*Answer, error) {
	start := time.Now()
	h, err := s.reserve(ctx, estimateBytes(j.circuit, tier, s.cfg.Workers))
	if err != nil {
		return nil, s.stepDownOn(err, false)
	}
	defer h.release()

	opt := core.Options{
		Workers:  s.cfg.Workers,
		Context:  h.ctx,
		Exact:    tier == TierExact,
		Progress: j.tracker,
	}
	if tier == TierFast && *spill != "" {
		// An evicted exact rung left a frontier behind; same circuit,
		// criterion and sort, so the fast rung finishes the walk instead
		// of restarting it. Mixed exact/fast counters stay sound:
		// LP ⊆ S ⊆ LP^sup either way.
		cp, rerr := core.ReadCheckpointFile(*spill)
		if rerr != nil {
			j.note(fmt.Sprintf("spilled checkpoint unusable (%v); restarting tier", rerr))
			os.Remove(*spill)
			*spill = ""
		} else {
			opt.Checkpoint = cp
			*resumed = true
		}
	}

	rep, err := core.Identify(j.circuit, j.heuristic, opt)
	if err != nil {
		// The sort passes were interrupted (no partial sort exists) or
		// the pipeline was misconfigured.
		return nil, s.stepDownOn(err, h.evicted.Load())
	}
	switch rep.Status {
	case core.StatusComplete:
		return &Answer{
			Tier:       tier.String(),
			Circuit:    j.circuit.Name(),
			Heuristic:  j.heuristic.String(),
			Exact:      tier == TierExact,
			TotalPaths: rep.TotalLogicalPaths.String(),
			Selected:   rep.Selected,
			RD:         rep.RD.String(),
			RDPercent:  rep.RDPercent(),
			DurationMS: time.Since(start).Milliseconds(),
		}, nil
	case core.StatusDeadline, core.StatusCanceled:
		if !h.evicted.Load() {
			if s.baseCtx.Err() != nil {
				// Shutdown killed the walk. A graceful drain keeps the
				// progress: the frontier goes to its own file (not the
				// ladder's eviction spill, which runLadder deletes) so an
				// operator or a coordinator can resume the job elsewhere.
				if s.draining.Load() && rep.Final != nil && rep.Final.Checkpoint != nil {
					var drainSpill string
					if err := s.spillCheckpointAs(j.ID+".drain.ckpt", rep.Final.Checkpoint, &drainSpill); err != nil {
						j.note(fmt.Sprintf("drain checkpoint spill failed (%v)", err))
					} else {
						j.note("drained: checkpoint spilled to " + drainSpill)
					}
				}
				return nil, ErrShutdown
			}
			return nil, &stepDown{cause: core.ErrDeadline, note: "deadline"}
		}
		// Evicted mid-walk: spill the frontier so the fast rung resumes.
		if tier == TierExact && rep.Final != nil && rep.Final.Checkpoint != nil {
			if err := s.spillCheckpoint(j, rep.Final.Checkpoint, spill); err != nil {
				j.note(fmt.Sprintf("checkpoint spill failed (%v); next tier restarts", err))
			}
		}
		return nil, &stepDown{cause: ErrBudget, note: "memory budget"}
	case core.StatusDegraded:
		// Workers panicked; the counters are partial and no checkpoint
		// can repair them. Never serve them — drop to a rung that
		// recomputes from scratch.
		return nil, &stepDown{cause: errors.Join(core.ErrWorkerPanic, rep.Final.Err), note: "worker panic"}
	}
	return nil, fmt.Errorf("serve: unexpected enumeration status %v", rep.Status)
}

// spillCheckpoint writes an evicted rung's frontier under the spill
// directory. Fault-injection point: faultinject.PointSpill (errors and
// slow I/O); corruption of the bytes themselves is injected one layer
// down at core.checkpoint.bytes.
func (s *Server) spillCheckpoint(j *Job, cp *core.Checkpoint, spill *string) error {
	return s.spillCheckpointAs(j.ID+".ckpt", cp, spill)
}

// spillCheckpointAs writes cp under the spill directory with an explicit
// file name; drain spills use a distinct name so the ladder's
// eviction-spill cleanup never deletes them.
func (s *Server) spillCheckpointAs(name string, cp *core.Checkpoint, spill *string) error {
	if err := faultinject.Fire(faultinject.PointSpill); err != nil {
		return err
	}
	path := filepath.Join(s.cfg.SpillDir, name)
	if err := core.WriteCheckpointFile(path, cp); err != nil {
		return err
	}
	*spill = path
	return nil
}

// runCertTier serves the compact prime-segment certificate: the serial
// enumeration with the same sort as the rungs above, so its RD set is
// identical to the fast rung's — only the representation shrinks.
func (s *Server) runCertTier(ctx context.Context, j *Job) (*Answer, error) {
	start := time.Now()
	if j.heuristic == core.HeuristicFUS {
		return nil, &stepDown{cause: errors.New("serve: no certificate for FUS"), note: "certificate needs an input sort (FUS has none)"}
	}
	h, err := s.reserve(ctx, estimateBytes(j.circuit, TierCertificate, 1))
	if err != nil {
		return nil, s.stepDownOn(err, false)
	}
	defer h.release()

	// The same sort every rung of the job uses — that shared σ is what
	// makes the ladder's subset guarantee hold. The heavy Heuristic 2
	// passes are memoized, so this rung never recomputes a sort a higher
	// rung already paid for.
	sort, err := core.HeuristicSort(h.ctx, j.circuit, j.heuristic, 1)
	if err != nil {
		if h.evicted.Load() {
			err = ErrBudget
		}
		return nil, &stepDown{cause: err, note: downNote(err)}
	}
	cert, err := core.CollectRDSegments(j.circuit, *sort, core.Options{Context: h.ctx, Progress: j.tracker})
	if err != nil {
		return nil, &stepDown{cause: err, note: downNote(err)}
	}
	res := cert.Result
	if res.Status != core.StatusComplete {
		// A partial segment list certifies nothing; no resume below this
		// rung either.
		cause := res.Err
		if h.evicted.Load() {
			cause = ErrBudget
		}
		if cause == nil {
			cause = fmt.Errorf("serve: certificate enumeration ended %v", res.Status)
		}
		if s.baseCtx.Err() != nil {
			return nil, ErrShutdown
		}
		return nil, &stepDown{cause: cause, note: downNote(cause)}
	}
	return &Answer{
		Tier:       TierCertificate.String(),
		Circuit:    j.circuit.Name(),
		Heuristic:  j.heuristic.String(),
		TotalPaths: res.Total.String(),
		Selected:   res.Selected,
		RD:         res.RD.String(),
		RDPercent:  res.RDPercent(),
		Segments:   len(cert.Segments),
		DurationMS: time.Since(start).Milliseconds(),
	}, nil
}

// runCountTier is the ladder's floor: the linear-time path count. Its RD
// set is empty, so it is trivially sound; if even its reservation is
// denied, the job fails with the budget error — there is nothing
// cheaper to serve.
func (s *Server) runCountTier(ctx context.Context, j *Job) (*Answer, error) {
	start := time.Now()
	resv, err := s.budget.Reserve(estimateBytes(j.circuit, TierCount, 1))
	if err != nil {
		return nil, err
	}
	defer resv.Release()
	if err := s.baseCtx.Err(); err != nil {
		return nil, ErrShutdown
	}
	total := analysis.For(j.circuit).CopyLogical()
	return &Answer{
		Tier:       TierCount.String(),
		Circuit:    j.circuit.Name(),
		Heuristic:  j.heuristic.String(),
		TotalPaths: total.String(),
		RD:         "0",
		DurationMS: time.Since(start).Milliseconds(),
	}, nil
}
