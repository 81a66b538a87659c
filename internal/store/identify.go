package store

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
)

// Options tunes IdentifyThrough.
type Options struct {
	// Heuristic picks the input sort (default Heuristic2, like the rest
	// of the pipeline). Heuristic1/PinOrder sorts are linear-time, which
	// makes them the natural ECO default: on a warm path the sort is the
	// only whole-circuit work left. Heuristic2's sort itself costs two
	// enumeration passes, so its warm savings cover only the final pass.
	Heuristic core.Heuristic
	// Workers is the parallelism of the sort and the cone walk (0 or 1 =
	// serial). Counters are worker-count-independent, so results written
	// at one width are valid hits at any other.
	Workers int
	// Context cancels the run before and inside the cone walk.
	Context context.Context
}

// ConeOutcome is one cone's provenance in an incremental run.
type ConeOutcome struct {
	Name     string `json:"name"`
	Key      string `json:"key"`
	Reused   bool   `json:"reused"`
	Selected int64  `json:"selected"`
	Segments int64  `json:"segments"`
}

// Result is one identification served through the store. Counter
// semantics match the fleet's cone-granular runs: Total/Selected/RD are
// bit-identical to a whole-circuit single-process run, Segments is the
// cone-sharded work sum (shared DFS prefixes walked once per cone —
// deterministic, but above the whole-circuit count).
type Result struct {
	Circuit   string   `json:"circuit"`
	Heuristic string   `json:"heuristic"`
	Criterion string   `json:"criterion"`
	Total     *big.Int `json:"-"`
	Selected  int64    `json:"selected"`
	RD        *big.Int `json:"-"`
	Segments  int64    `json:"segments"`
	Pruned    int64    `json:"pruned"`
	TotalStr  string   `json:"total_paths"`
	RDStr     string   `json:"rd"`

	// Outcome is "hit" (served without any enumeration), "delta" (some
	// cones reused, the rest re-identified) or "miss" (nothing reusable).
	Outcome string `json:"outcome"`
	// RunKey is the whole-circuit store key this run was served from or
	// written to.
	RunKey      string `json:"run_key"`
	Cones       int    `json:"cones"`
	ReusedCones int    `json:"reused_cones"`
	FreshCones  int    `json:"fresh_cones"`
	// EnumeratedSegments counts the DFS edge extensions this call
	// actually performed — 0 for a pure hit, otherwise the one walk over
	// the fresh cones, where a prefix they share counts once.
	// (Result.Segments, by contrast, always reports the full merged
	// per-cone tally, reused cones included.)
	EnumeratedSegments int64 `json:"enumerated_segments"`
	// CorruptEntries counts store entries that failed validation and
	// were recomputed around (each also emits a store.corrupt event).
	CorruptEntries int           `json:"corrupt_entries,omitempty"`
	PerCone        []ConeOutcome `json:"per_cone,omitempty"`
	Duration       time.Duration `json:"-"`
}

// RDPercent is 100*RD/Total (0 on empty circuits).
func (r *Result) RDPercent() float64 { return core.RDPercent(r.RD, r.Total) }

// IdentifyThrough runs RD identification on c through the store s:
//
//  1. A run entry under c's content address whose shape matches is a
//     pure hit — the stored counters are served with no sort
//     computation and no enumeration at all (isomorphism implies the
//     deterministic sort transports, so shape equality is sufficient).
//  2. Otherwise the global sort is computed and each cone is either
//     served from its cone entry (same shape, same projected sort, same
//     criterion — typically populated by the ancestor revision's run)
//     or re-identified and written back. The cones to re-identify are
//     walked together, in one core.EnumerateCones walk of c whose
//     per-cone counters equal walking each cone alone. This is the
//     incremental ECO path: a k-of-n-cone edit re-enumerates only the
//     changed cones, and the merged counters are bit-identical to a
//     cold run of the same cone-granular pipeline.
//
// Corrupt entries (checksum, version or identity failures) are typed
// *seal.CorruptError at the store layer; here they degrade to
// recomputation — a corrupt store can cost time, never correctness. Every run emits
// one store.hit, store.delta or store.miss event with the reuse
// accounting in its fields.
func IdentifyThrough(s *Store, c *circuit.Circuit, opt Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("store: nil store")
	}
	start := time.Now()
	h, ctx := opt.Heuristic, opt.Context
	cr := h.Criterion()

	funcHash, shapeHash, err := HashFor(c)
	if err != nil {
		return nil, err
	}
	runKey := RunKey(funcHash, h, cr)

	res := &Result{
		Circuit:   c.Name(),
		Heuristic: h.String(),
		Criterion: cr.String(),
		RunKey:    runKey,
	}

	ancestor, err := s.GetRun(runKey)
	switch {
	case err == nil && ancestor.ShapeHash == shapeHash:
		// Pure hit: same function, same shape, same pipeline. The sort a
		// heuristic would compute is a deterministic function of the
		// structure, so it is the same sort — nothing to recompute.
		total, rd, perr := parseCounters(ancestor.TotalPaths, ancestor.RD)
		if perr != nil {
			// An entry that validated but doesn't parse is corrupt all the
			// same; recompute below.
			s.corrupt.Add(1)
			s.emit("store.corrupt", fmt.Sprintf("run %s: %v", runKey, perr), nil)
			res.CorruptEntries++
			ancestor = nil
		} else {
			res.Outcome = "hit"
			res.Total, res.RD = total, rd
			res.Selected, res.Segments, res.Pruned = ancestor.Selected, ancestor.Segments, ancestor.Pruned
			res.Cones, res.ReusedCones = ancestor.Cones, ancestor.Cones
			res.TotalStr, res.RDStr = res.Total.String(), res.RD.String()
			res.Duration = time.Since(start)
			s.emit("store.hit", c.Name(), map[string]int64{
				"cones": int64(res.Cones), "reused": int64(res.ReusedCones),
			})
			return res, nil
		}
	case err == nil:
		// Same function, different shape (e.g. buffers were inserted):
		// the run entry locates the ancestor but its counters cannot be
		// served verbatim. The cone pass below reuses what still matches.
	case errors.Is(err, ErrMiss):
		ancestor = nil
	default:
		// Corrupt or unreadable run entry: recompute, never guess.
		res.CorruptEntries++
		ancestor = nil
	}

	sort, err := core.HeuristicSort(ctx, c, h, opt.Workers)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("%w: store identification interrupted", classifyCtx(cerr))
		}
	}

	// Each distinct cone key is looked up once. The keys the store cannot
	// serve are walked together, in one walk of c restricted to their
	// outputs. A key repeated within c (isomorphic cones under identical
	// projected sorts) takes its first cone's counters and counts as
	// reused: the twin is neither looked up again nor walked.
	type coneCounters struct {
		rec       *ConeRecord
		total, rd *big.Int
		walked    bool
	}
	outputs := c.Outputs()
	keys := ConeKeys(c, sort, cr)
	got := make([]coneCounters, len(outputs)) // at each key's first cone
	first := make(map[string]int, len(outputs))
	var fresh []circuit.GateID
	var freshAt []int
	for i, key := range keys {
		if _, dup := first[key]; dup {
			continue
		}
		first[key] = i
		rec, gerr := s.GetCone(key)
		if gerr == nil {
			total, rd, perr := parseCounters(rec.TotalPaths, rec.RD)
			if perr == nil {
				got[i] = coneCounters{rec: rec, total: total, rd: rd}
				continue
			}
			s.corrupt.Add(1)
			s.emit("store.corrupt", fmt.Sprintf("cone %s: %v", key, perr), nil)
			res.CorruptEntries++
		} else if !errors.Is(gerr, ErrMiss) {
			res.CorruptEntries++
		}
		fresh = append(fresh, outputs[i])
		freshAt = append(freshAt, i)
	}

	if len(fresh) > 0 {
		cones, walk, err := core.EnumerateCones(c, cr, fresh, core.Options{
			Sort:    sort,
			Workers: opt.Workers,
			Context: ctx,
		})
		if err != nil {
			return nil, err
		}
		if walk.Status != core.StatusComplete {
			cause := walk.Err
			if cause == nil {
				cause = fmt.Errorf("core: enumeration ended %v", walk.Status)
			}
			return nil, fmt.Errorf("store: cone walk of %s incomplete: %w", c.Name(), cause)
		}
		res.EnumeratedSegments = walk.Segments
		for k, i := range freshAt {
			er := cones[k]
			rec := &ConeRecord{
				Cone:       ConeName(c, outputs[i]),
				TotalPaths: er.Total.String(),
				Selected:   er.Selected,
				RD:         er.RD.String(),
				Segments:   er.Segments,
				Pruned:     er.Pruned,
			}
			// Best-effort persistence: a lost write costs the next run
			// time, not correctness.
			if perr := s.PutCone(keys[i], rec); perr != nil {
				s.emit("store.write-error", perr.Error(), nil)
			}
			got[i] = coneCounters{rec: rec, total: er.Total, rd: er.RD, walked: true}
		}
	}

	res.Total, res.RD = new(big.Int), new(big.Int)
	for i, key := range keys {
		g := got[first[key]]
		res.Total.Add(res.Total, g.total)
		res.RD.Add(res.RD, g.rd)
		res.Selected += g.rec.Selected
		res.Segments += g.rec.Segments
		res.Pruned += g.rec.Pruned
		out := ConeOutcome{
			Name:     ConeName(c, outputs[i]),
			Key:      key,
			Reused:   first[key] != i || !g.walked,
			Selected: g.rec.Selected,
			Segments: g.rec.Segments,
		}
		if out.Reused {
			res.ReusedCones++
		} else {
			res.FreshCones++
		}
		res.PerCone = append(res.PerCone, out)
	}

	res.Cones = len(keys)
	res.TotalStr, res.RDStr = res.Total.String(), res.RD.String()
	switch {
	case res.FreshCones == 0:
		// Every cone came from the store even though the run entry didn't
		// match (or didn't exist): still zero enumeration work.
		res.Outcome = "hit"
	case res.ReusedCones > 0 || ancestor != nil:
		res.Outcome = "delta"
	default:
		res.Outcome = "miss"
	}

	if perr := s.PutRun(runKey, &RunRecord{
		Circuit:        c.Name(),
		Heuristic:      h.String(),
		Criterion:      cr.String(),
		FuncHash:       funcHash,
		ShapeHash:      shapeHash,
		CircuitVersion: c.Version(),
		TotalPaths:     res.TotalStr,
		Selected:       res.Selected,
		RD:             res.RDStr,
		Segments:       res.Segments,
		Pruned:         res.Pruned,
		Cones:          res.Cones,
		ConeKeys:       keys,
	}); perr != nil {
		s.emit("store.write-error", perr.Error(), nil)
	}

	res.Duration = time.Since(start)
	s.emit("store."+res.Outcome, c.Name(), map[string]int64{
		"cones":               int64(res.Cones),
		"reused":              int64(res.ReusedCones),
		"fresh":               int64(res.FreshCones),
		"enumerated_segments": res.EnumeratedSegments,
		"corrupt":             int64(res.CorruptEntries),
	})
	return res, nil
}

// parseCounters decodes the big-int counter pair of a stored record.
func parseCounters(total, rd string) (*big.Int, *big.Int, error) {
	t, ok := new(big.Int).SetString(total, 10)
	if !ok {
		return nil, nil, fmt.Errorf("bad total %q", total)
	}
	r, ok := new(big.Int).SetString(rd, 10)
	if !ok {
		return nil, nil, fmt.Errorf("bad rd %q", rd)
	}
	return t, r, nil
}

// classifyCtx maps a context error onto core's typed interruptions.
func classifyCtx(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return core.ErrDeadline
	}
	return core.ErrCanceled
}
