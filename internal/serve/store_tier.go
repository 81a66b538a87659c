package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rdfault/internal/core"
	"rdfault/internal/store"
)

// runStoreFast serves the fast rung through the content-addressed
// result store: a resubmitted (or merely relabeled) circuit is answered
// from its stored counters with zero enumeration work, and an ECO
// revision re-enumerates only its changed cones. The rung reserves the
// same budget as the plain fast rung — a delta's worst case is a full
// run — and steps down on the same causes. Store failures below the
// identification layer (unreadable or corrupt entries) never surface
// here: IdentifyThrough degrades them to recomputation internally.
func (s *Server) runStoreFast(ctx context.Context, j *Job) (*Answer, error) {
	start := time.Now()
	resv, err := s.budget.Reserve(estimateBytes(j.circuit, TierFast, s.cfg.Workers))
	if err != nil {
		if errors.Is(err, ErrBudget) {
			return nil, &stepDown{cause: err, note: "memory budget"}
		}
		return nil, err
	}
	defer resv.Release()

	tierCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var evicted atomic.Bool
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-resv.Evicted():
			evicted.Store(true)
			cancel()
		case <-tierCtx.Done():
		}
	}()
	defer func() { cancel(); <-watchDone }()

	res, err := store.IdentifyThrough(s.cfg.Store, j.circuit, store.Options{
		Heuristic: j.heuristic,
		Workers:   s.cfg.Workers,
		Context:   tierCtx,
	})
	if err != nil {
		switch {
		case evicted.Load():
			return nil, &stepDown{cause: ErrBudget, note: "memory budget"}
		case errors.Is(err, core.ErrDeadline) || errors.Is(err, core.ErrCanceled),
			errors.Is(err, core.ErrWorkerPanic):
			if s.baseCtx.Err() != nil {
				return nil, ErrShutdown
			}
			return nil, &stepDown{cause: err, note: downNote(err)}
		}
		return nil, err
	}

	// The job's progress reports the counters it was served, whether the
	// store walked any of them or not.
	j.tracker.Freeze(core.Progress{Selected: res.Selected, Segments: res.Segments, Pruned: res.Pruned})
	s.metrics.storeLookups.With(res.Outcome).Add(1)
	s.metrics.storeCones.With("store").Add(int64(res.ReusedCones))
	s.metrics.storeCones.With("fresh").Add(int64(res.FreshCones))
	s.metrics.storeCorrupt.Add(int64(res.CorruptEntries))

	ans := &Answer{
		Tier:       TierFast.String(),
		Store:      res.Outcome,
		Circuit:    j.circuit.Name(),
		Heuristic:  j.heuristic.String(),
		TotalPaths: res.TotalStr,
		Selected:   res.Selected,
		RD:         res.RDStr,
		RDPercent:  res.RDPercent(),
		DurationMS: time.Since(start).Milliseconds(),
	}
	switch res.Outcome {
	case "hit":
		ans.TierReason = "store hit"
	case "delta":
		ans.TierReason = fmt.Sprintf("store delta: reused %d/%d cones",
			res.ReusedCones, res.Cones)
	}
	return ans, nil
}
