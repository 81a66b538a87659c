package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/seal"
	"rdfault/internal/store"
)

// ErrBadCheckpoint is the sentinel for a dispatch carrying a checkpoint
// this server cannot resume — corrupt bytes, a version this build does
// not read, or a fingerprint that does not match the submitted circuit.
// It maps to HTTP 422 so a coordinator can tell "drop the checkpoint and
// restart the cone from scratch" (this) apart from "the request itself
// is malformed" (400, not worth retrying at all).
var ErrBadCheckpoint = errors.New("serve: unusable checkpoint")

// ConeRequest is one synchronous enumeration slice: the work unit of the
// fleet coordinator (POST /v1/cone). Unlike the job lane, which picks
// its own input sort from a heuristic name, this lane takes the sort
// explicitly — the coordinator computes one global σ on the full circuit
// and ships it with the netlist, which is exactly what makes per-cone
// Selected/RD counters sum to the whole-circuit run.
//
// A request names a group of outputs; the worker walks them together in
// one output-restricted enumeration (core.EnumerateCones) and answers
// each output's cone counters separately.
type ConeRequest struct {
	// Bench is the netlist in .bench format.
	Bench string `json:"bench"`
	// Name labels the circuit (it is also checkpoint-fingerprinted, so
	// every dispatch of one group must reuse the same name).
	Name string `json:"name,omitempty"`
	// Outputs are the requested outputs as positions in the parsed
	// netlist's output list (the .bench format keeps the order of the
	// outputs, not always their names). Empty means every output, so a
	// one-output cone netlist asks for exactly its cone.
	Outputs []int `json:"outputs,omitempty"`
	// Criterion is "sigma^pi" (default) or "FS" (the FUS baseline, which
	// uses no sort).
	Criterion string `json:"criterion,omitempty"`
	// Sort carries π(g, l) keyed by gate name (circuit.SortFromNames);
	// gates with fewer than two pins may be omitted. Ignored for FS.
	Sort map[string][]int `json:"sort,omitempty"`
	// Checkpoint, when present, resumes the slice from an earlier
	// interrupted answer's Checkpoint field (opaque core checkpoint
	// bytes, bound to the same outputs). Counters are cumulative across
	// the chain: the final complete answer carries the whole walk's
	// tallies.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// SliceMS bounds this slice's wall clock; an expired slice is not an
	// error but an interrupted answer carrying the next checkpoint
	// (0 = run to completion).
	SliceMS int64 `json:"slice_ms,omitempty"`
	// Workers overrides the server's enumeration parallelism for this
	// slice (0 = server default).
	Workers int `json:"workers,omitempty"`
}

// ConeAnswer reports one slice. At top level it carries the walk's own
// counters: Status "complete" with the final counters, or
// "deadline"/"canceled" with the partial counters plus the checkpoint
// that resumes them (on this worker or any other running the same
// build — checkpoints are engine-transplantable). Cones holds one
// answer per requested output, in request order, each sealed on its
// own, with the same fields at cone granularity and Circuit naming the
// cone "<circuit>.<output>".
type ConeAnswer struct {
	Status     string `json:"status"`
	Circuit    string `json:"circuit"`
	Criterion  string `json:"criterion"`
	TotalPaths string `json:"total_paths"`
	Selected   int64  `json:"selected"`
	// RD is Total - Selected for complete slices, empty otherwise (an
	// interrupted slice proves nothing about unvisited paths).
	RD         string          `json:"rd,omitempty"`
	Segments   int64           `json:"segments"`
	Pruned     int64           `json:"pruned"`
	SATRejects int64           `json:"sat_rejects,omitempty"`
	Resumed    bool            `json:"resumed,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	Cones      []*ConeAnswer   `json:"cones,omitempty"`
	DurationMS int64           `json:"duration_ms"`
	// Sum is an end-to-end integrity checksum (seal.JSON) over every
	// answer field except itself and DurationMS. A coordinator that
	// receives an answer whose Sum is missing or does not recompute
	// treats the response as corrupt in transit and retries — it never
	// merges the numbers.
	Sum string `json:"sum,omitempty"`
}

// Seal stamps the answer's integrity checksum. The server seals every
// answer it sends; Verify checks it on the receiving side.
func (a *ConeAnswer) Seal() { a.Sum = seal.JSON(a.unsealed()) }

// Verify recomputes the checksum; an answer that carries none fails.
func (a *ConeAnswer) Verify() bool { return a.Sum != "" && a.Sum == seal.JSON(a.unsealed()) }

// unsealed is what the checksum covers: the answer without its Sum and
// DurationMS.
func (a *ConeAnswer) unsealed() ConeAnswer {
	u := *a
	u.Sum, u.DurationMS = "", 0
	return u
}

// Cone runs one enumeration slice synchronously. It never queues: the
// lane has its own in-flight cap and sheds excess load immediately with
// *SaturatedError, which is the backpressure signal the fleet's retry
// policy consumes. A slice interrupted by its deadline, a budget
// eviction or a server drain answers with a resumable checkpoint rather
// than an error — the caller decides where to resume it.
func (s *Server) Cone(req ConeRequest) (*ConeAnswer, error) {
	select {
	case s.coneSem <- struct{}{}:
	default:
		s.shed.Add(1)
		s.metrics.shed.With("cone").Add(1)
		s.emit("job.shed", "", "cone", nil)
		return nil, &SaturatedError{Lane: "cone", RetryAfter: s.cfg.RetryAfter}
	}
	defer func() { <-s.coneSem }()
	s.coneInflight.Add(1)
	defer s.coneInflight.Add(-1)
	s.metrics.coneSlices.Inc()
	if s.baseCtx.Err() != nil || s.draining.Load() {
		return nil, ErrShutdown
	}

	cr, err := core.ParseCriterion(req.Criterion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c, err := s.admit(req.Name, req.Bench)
	if err != nil {
		return nil, err
	}
	// Every parse is a new circuit version nothing can look up again, so
	// its analysis leaves the registry with the walk instead of crowding
	// out circuits that are looked up again.
	defer analysis.Drop(c)
	outputs, err := requestedOutputs(c, req.Outputs)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Workers: req.Workers}
	if opt.Workers <= 0 {
		opt.Workers = s.cfg.Workers
	}
	if cr == core.SigmaPi {
		sort, err := circuit.SortFromNames(c, req.Sort)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		opt.Sort = &sort
	}
	if len(req.Checkpoint) > 0 {
		cp, err := core.DecodeCheckpoint(bytes.NewReader(req.Checkpoint))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		opt.Checkpoint = cp
	}

	start := time.Now()
	h, err := s.reserve(s.baseCtx, estimateBytes(c, TierFast, opt.Workers))
	if err != nil {
		return nil, err
	}
	defer h.release()

	// The slice deadline is anchored at the injectable clock, like every
	// deadline in this package; an eviction or drain cancels the same
	// context, and all three interruption paths end in a checkpoint.
	opt.Context = h.ctx
	if req.SliceMS > 0 {
		var cancel context.CancelFunc
		opt.Context, cancel = context.WithDeadline(h.ctx,
			faultinject.Now(faultinject.PointClock).Add(time.Duration(req.SliceMS)*time.Millisecond))
		defer cancel()
	}

	cones, walk, err := core.EnumerateCones(c, cr, outputs, opt)
	if err != nil {
		// The outputs, sort and options were validated above; what is left
		// is a checkpoint that fails validation against the submitted
		// circuit, sort or outputs.
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	ans := coneAnswer(walk, c.Name(), opt.Checkpoint != nil, start)
	for i, r := range cones {
		ca := coneAnswer(r, store.ConeName(c, outputs[i]), ans.Resumed, start)
		ca.Seal()
		ans.Cones = append(ans.Cones, ca)
	}
	switch walk.Status {
	case core.StatusComplete:
		ans.Seal()
		return ans, nil
	case core.StatusDeadline, core.StatusCanceled:
		var buf bytes.Buffer
		if walk.Checkpoint == nil {
			return nil, fmt.Errorf("serve: interrupted slice produced no checkpoint")
		}
		if err := walk.Checkpoint.Encode(&buf); err != nil {
			return nil, err
		}
		ans.Checkpoint = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		ans.Seal()
		return ans, nil
	case core.StatusDegraded:
		// Partial counters with crashed subtrees must never be served; the
		// caller retries from its last good checkpoint.
		return nil, fmt.Errorf("serve: cone slice degraded: %w", walk.Err)
	}
	return nil, fmt.Errorf("serve: unexpected slice status %v", walk.Status)
}

// requestedOutputs maps a request's output positions onto c's outputs:
// all of them for an empty list, a 400 for a position out of range or
// given twice.
func requestedOutputs(c *circuit.Circuit, pos []int) ([]circuit.GateID, error) {
	all := c.Outputs()
	if len(pos) == 0 {
		return all, nil
	}
	seen := make([]bool, len(all))
	outputs := make([]circuit.GateID, len(pos))
	for i, p := range pos {
		if p < 0 || p >= len(all) || seen[p] {
			return nil, fmt.Errorf("%w: output position %d out of range or repeated (%d outputs)",
				ErrBadRequest, p, len(all))
		}
		seen[p] = true
		outputs[i] = all[p]
	}
	return outputs, nil
}

// coneAnswer renders one enumeration Result, unsealed and without a
// checkpoint.
func coneAnswer(r *core.Result, name string, resumed bool, start time.Time) *ConeAnswer {
	a := &ConeAnswer{
		Status:     r.Status.String(),
		Circuit:    name,
		Criterion:  r.Criterion.String(),
		TotalPaths: r.Total.String(),
		Selected:   r.Selected,
		Segments:   r.Segments,
		Pruned:     r.Pruned,
		SATRejects: r.SATRejects,
		Resumed:    resumed,
		DurationMS: time.Since(start).Milliseconds(),
	}
	if r.RD != nil {
		a.RD = r.RD.String()
	}
	return a
}
