package serve

import (
	"context"
	"fmt"
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
	h, err := s.reserve(ctx, estimateBytes(j.circuit, TierFast, s.cfg.Workers))
	if err != nil {
		return nil, s.stepDownOn(err, false)
	}
	defer h.release()

	res, err := store.IdentifyThrough(s.cfg.Store, j.circuit, store.Options{
		Heuristic: j.heuristic,
		Workers:   s.cfg.Workers,
		Context:   h.ctx,
	})
	if err != nil {
		return nil, s.stepDownOn(err, h.evicted.Load())
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
