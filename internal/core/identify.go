package core

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"time"

	"rdfault/internal/circuit"
)

// Heuristic selects how the input sort for the final σ^π enumeration is
// chosen.
type Heuristic uint8

const (
	// HeuristicFUS is the baseline of Cheng/Chen [2]: no stabilizing
	// assignment at all, only functionally unsensitizable paths are
	// declared RD (the FUS column of Table I).
	HeuristicFUS Heuristic = iota
	// Heuristic1 sorts gate inputs by path counts (Section V, Heuristic 1).
	Heuristic1
	// Heuristic2 sorts gate inputs by |FS_c^sup \ T_c^sup| (Heuristic 2 /
	// Algorithm 3).
	Heuristic2
	// Heuristic2Inverse uses the inverse of Heuristic 2's sort — the
	// control experiment of Table I's last column.
	Heuristic2Inverse
	// HeuristicPinOrder uses the netlist pin order as the sort; a cheap
	// arbitrary-sort baseline.
	HeuristicPinOrder
)

// heuristicNames are the heuristics' command-line and wire names.
var heuristicNames = [...]string{
	HeuristicFUS:      "fus",
	Heuristic1:        "heu1",
	Heuristic2:        "heu2",
	Heuristic2Inverse: "inverse",
	HeuristicPinOrder: "pin",
}

// ParseHeuristic maps a command-line or wire name (fus, heu1, heu2,
// inverse, pin; in any letter case) to its heuristic.
func ParseHeuristic(name string) (Heuristic, error) {
	for h, n := range heuristicNames {
		if strings.EqualFold(name, n) {
			return Heuristic(h), nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q (want fus|heu1|heu2|inverse|pin)", name)
}

// Criterion is the criterion h's final pass checks: FS for HeuristicFUS,
// which computes no sort, and σ^π under the sort of every other
// heuristic.
func (h Heuristic) Criterion() Criterion {
	if h == HeuristicFUS {
		return FS
	}
	return SigmaPi
}

// String names the heuristic as in Table I's columns.
func (h Heuristic) String() string {
	switch h {
	case HeuristicFUS:
		return "FUS"
	case Heuristic1:
		return "Heu1"
	case Heuristic2:
		return "Heu2"
	case Heuristic2Inverse:
		return "Heu2-inverse"
	case HeuristicPinOrder:
		return "PinOrder"
	}
	return fmt.Sprintf("Heuristic(%d)", uint8(h))
}

// Report is the outcome of a full RD identification run on one circuit.
type Report struct {
	Circuit   string
	Heuristic Heuristic
	// TotalLogicalPaths is |LP(C)|.
	TotalLogicalPaths *big.Int
	// RD is the number of logical paths identified robust dependent; nil
	// when Complete is false (a truncated run proves nothing about the
	// paths it never visited).
	RD *big.Int
	// Selected is |LP^sup(σ^π)| (or |FS^sup| for HeuristicFUS): the paths
	// that remain to be considered for delay testing.
	Selected int64
	// Sort is the input sort used (unset for HeuristicFUS).
	Sort *circuit.InputSort
	// SortDuration covers computing the sort (for Heuristic 2 this
	// includes the two Algorithm 3 passes); EnumerateDuration covers the
	// final pass; Total is the whole pipeline wall clock.
	SortDuration      time.Duration
	EnumerateDuration time.Duration
	Total             time.Duration
	// Final is the final enumeration pass result.
	Final *Result
	// Status mirrors Final.Status: how the final pass ended. The
	// heuristic sort passes either complete or abort the pipeline with an
	// error, so they never contribute a status of their own.
	Status Status
	// Complete is false if a path limit stopped enumeration.
	Complete bool
}

// RDPercent returns 100*RD/TotalLogicalPaths; 0 when RD is unknown
// (incomplete run) or the circuit is empty.
func (r *Report) RDPercent() float64 { return RDPercent(r.RD, r.TotalLogicalPaths) }

// RDPercent is 100*rd/total, the paper's RD percentage; 0 when rd is
// unknown (nil) or the circuit has no paths.
func RDPercent(rd, total *big.Int) float64 {
	if rd == nil || total == nil || total.Sign() == 0 {
		return 0
	}
	q, _ := new(big.Float).Quo(new(big.Float).SetInt(rd), new(big.Float).SetInt(total)).Float64()
	return 100 * q
}

// Identify runs the complete RD identification pipeline on c with the
// given heuristic: choose the input sort, then run the final Algorithm 2
// pass. opt.Sort is ignored (the heuristic provides it); the remaining
// options pass through to the final enumeration.
//
// opt.Context and opt.Deadline bound the whole pipeline, sort passes
// included. The Heuristic 2 sort passes cannot produce a partial sort, so
// interruption during them aborts with ErrDeadline/ErrCanceled; once the
// final pass is reached, interruption degrades gracefully into a Report
// whose Final result carries the partial counters and checkpoint.
// opt.Checkpoint resumes such a final pass: the (deterministic) sort is
// recomputed and the enumeration continues from the frontier.
func Identify(c *circuit.Circuit, h Heuristic, opt Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Circuit: c.Name(), Heuristic: h}

	// One budget for the whole pipeline: fold Deadline into the context
	// here so the sort passes and the final pass share it.
	ctx := opt.Context
	if opt.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
		opt.Context = ctx
		opt.Deadline = 0
	}

	t0 := time.Now()
	sort, err := HeuristicSort(ctx, c, h, opt.Workers)
	if err != nil {
		return nil, err
	}
	sortDur := time.Since(t0)
	opt.Sort, rep.Sort = sort, sort
	res, err := Enumerate(c, h.Criterion(), opt)
	if err != nil {
		return nil, err
	}
	rep.TotalLogicalPaths = res.Total
	rep.RD = res.RD
	rep.Selected = res.Selected
	rep.SortDuration = sortDur
	rep.EnumerateDuration = res.Duration
	rep.Total = time.Since(start)
	rep.Final = res
	rep.Status = res.Status
	rep.Complete = res.Complete
	return rep, nil
}

// String renders the report as one Table I/II style row. An incomplete
// run has no RD count: it shows the selected lower bound and why the walk
// stopped instead.
func (r *Report) String() string {
	if !r.Complete {
		why := "limit reached"
		switch r.Status {
		case StatusDeadline:
			why = "deadline, checkpoint available"
		case StatusCanceled:
			why = "canceled, checkpoint available"
		case StatusDegraded:
			why = "worker panic, counters partial"
		}
		return fmt.Sprintf("%-12s %-13s paths=%v selected>=%d RD=? (%s) sort=%v enum=%v",
			r.Circuit, r.Heuristic, r.TotalLogicalPaths, r.Selected, why,
			r.SortDuration.Round(time.Millisecond), r.EnumerateDuration.Round(time.Millisecond))
	}
	return fmt.Sprintf("%-12s %-13s paths=%v RD=%v (%.2f%%) sort=%v enum=%v",
		r.Circuit, r.Heuristic, r.TotalLogicalPaths, r.RD, r.RDPercent(),
		r.SortDuration.Round(time.Millisecond), r.EnumerateDuration.Round(time.Millisecond))
}
