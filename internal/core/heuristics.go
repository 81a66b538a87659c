package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
)

// Heuristic1Sort computes the input sort of Heuristic 1: the inputs of
// every gate are ordered by ascending |LP_c(l)| = |P(l)|, the number of
// physical paths through the lead (Remark 4). Computing it is pure path
// counting and costs O(gates + leads) big-integer operations — the
// "linear time" claim of Section V. Ties keep pin order, making the sort
// deterministic. The sort is memoized per circuit version through the
// analysis manager, so repeated identification runs on the same circuit
// pay for it once; the returned sort is shared and must be treated as
// read-only.
func Heuristic1Sort(c *circuit.Circuit) circuit.InputSort {
	v, _ := analysis.For(c).Memo("core.heu1sort", func() (any, error) {
		ct := analysis.For(c).Counts()
		pos := make([][]int, c.NumGates())
		for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
			fanin := c.Fanin(g)
			counts := make([]*big.Int, len(fanin))
			for pin := range fanin {
				counts[pin] = ct.ThroughLead(circuit.Lead{To: g, Pin: pin})
			}
			pos[g] = rankPins(counts)
		}
		return circuit.InputSort{Pos: pos}, nil
	})
	return v.(circuit.InputSort)
}

// Heuristic2Sort computes the input sort of Heuristic 2 via Algorithm 3:
// two enumeration passes approximate |FS_c^sup(l)| and |T_c^sup(l)| per
// lead, and gate inputs are ordered by ascending
// |FS_c^sup(l) \ T_c^sup(l)| = FS_c^sup(l) - T_c^sup(l) (T^sup ⊆ FS^sup
// holds per construction: the T conditions strictly include the FS
// conditions, so every T survivor also survives FS). The two pass results
// are returned for timing accounting — Heuristic 2's cost is dominated by
// running the enumeration three times (twice here, once for the final
// RD computation), as Table II shows.
func Heuristic2Sort(c *circuit.Circuit) (circuit.InputSort, *Result, *Result, error) {
	return Heuristic2SortWorkers(c, 1)
}

// Heuristic2SortWorkers is Heuristic2Sort with a worker budget: the two
// Algorithm 3 passes run concurrently, splitting the budget between them,
// and each pass is internally parallel (work-stealing Enumerate). The
// resulting sort is identical for every worker count — the per-lead
// tallies are schedule-independent.
func Heuristic2SortWorkers(c *circuit.Circuit, workers int) (circuit.InputSort, *Result, *Result, error) {
	return heuristic2SortCtx(c, workers, nil)
}

// HeuristicSort computes the whole-circuit input sort h prescribes, nil
// for HeuristicFUS (its FS criterion needs none): the one place the
// heuristic → sort decision is made. workers is Heuristic 2's budget for
// its two Algorithm 3 passes, and ctx (nil for none) interrupts them —
// they cannot yield a partial sort, so interruption returns
// ErrDeadline/ErrCanceled; the sort is the same for every budget. A
// cone's share of the sort is its projection (InputSort.Cone), which is
// what lets per-cone counters sum to the whole-circuit run.
func HeuristicSort(ctx context.Context, c *circuit.Circuit, h Heuristic, workers int) (*circuit.InputSort, error) {
	var s circuit.InputSort
	switch h {
	case HeuristicFUS:
		return nil, nil
	case Heuristic1:
		s = Heuristic1Sort(c)
	case Heuristic2, Heuristic2Inverse:
		var err error
		if s, _, _, err = heuristic2SortCtx(c, workers, ctx); err != nil {
			return nil, err
		}
		if h == Heuristic2Inverse {
			s = s.Inverse()
		}
	case HeuristicPinOrder:
		s = circuit.PinOrderSort(c)
	default:
		return nil, fmt.Errorf("core: unknown heuristic %v", h)
	}
	return &s, nil
}

// heu2Passes bundles the memoized outcome of Algorithm 3: the sort plus
// the two measurement passes it was derived from.
type heu2Passes struct {
	sort  circuit.InputSort
	fsRes *Result
	tRes  *Result
}

// heuristic2SortCtx is Heuristic2SortWorkers with a cancellation context
// for the two Algorithm 3 passes. An interrupted pass cannot yield a
// sort, so interruption surfaces as the pass's terminal error
// (ErrDeadline / ErrCanceled / the joined worker panics).
//
// The passes are deterministic and schedule-independent, so their
// outcome is memoized per circuit version: the first complete run pays
// for the two enumerations, every later Heuristic 2 identification on
// the same circuit reuses them (only the final σ^π pass re-runs).
// Failed or interrupted runs are never cached. The memoized sort and
// Results are shared across callers — read-only.
func heuristic2SortCtx(c *circuit.Circuit, workers int, ctx context.Context) (circuit.InputSort, *Result, *Result, error) {
	v, err := analysis.For(c).Memo("core.heu2passes", func() (any, error) {
		s, fsRes, tRes, err := heuristic2Passes(c, workers, ctx)
		if err != nil {
			return nil, err
		}
		return &heu2Passes{sort: s, fsRes: fsRes, tRes: tRes}, nil
	})
	if err != nil {
		return circuit.InputSort{}, nil, nil, err
	}
	p := v.(*heu2Passes)
	return p.sort, p.fsRes, p.tRes, nil
}

// heuristic2Passes runs the two Algorithm 3 enumeration passes and
// builds the sort; the uncached body behind heuristic2SortCtx.
func heuristic2Passes(c *circuit.Circuit, workers int, ctx context.Context) (circuit.InputSort, *Result, *Result, error) {
	var fsRes, tRes *Result
	var fsErr, tErr error
	if workers <= 1 {
		fsRes, fsErr = Enumerate(c, FS, Options{CollectLeadCounts: true, Context: ctx})
		if fsErr == nil {
			tRes, tErr = Enumerate(c, NonRobust, Options{CollectLeadCounts: true, Context: ctx})
		}
	} else {
		// Concurrent passes, each with half the budget (at least one).
		half := workers / 2
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tRes, tErr = Enumerate(c, NonRobust, Options{CollectLeadCounts: true, Workers: workers - half, Context: ctx})
		}()
		fsRes, fsErr = Enumerate(c, FS, Options{CollectLeadCounts: true, Workers: half, Context: ctx})
		wg.Wait()
	}
	if fsErr == nil && fsRes.Status != StatusComplete {
		fsErr = fsRes.Err
	}
	if tErr == nil && tRes != nil && tRes.Status != StatusComplete {
		tErr = tRes.Err
	}
	if fsErr != nil {
		return circuit.InputSort{}, nil, nil, fsErr
	}
	if tErr != nil {
		return circuit.InputSort{}, nil, nil, tErr
	}
	measure := make([]int64, c.NumLeads())
	for i := range measure {
		measure[i] = fsRes.LeadCounts[i] - tRes.LeadCounts[i]
	}
	return SortByLeadMeasure(c, measure), fsRes, tRes, nil
}

// SortByLeadMeasure builds an input sort ordering every gate's pins by
// ascending per-lead measure (indexed by Circuit.LeadIndex). It is the
// generic step 3 of Algorithm 3 and lets callers that already ran the
// enumeration passes construct Heuristic 2's sort without re-running
// them.
func SortByLeadMeasure(c *circuit.Circuit, measure []int64) circuit.InputSort {
	pos := make([][]int, c.NumGates())
	for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
		fanin := c.Fanin(g)
		counts := make([]*big.Int, len(fanin))
		for pin := range fanin {
			counts[pin] = big.NewInt(measure[c.LeadIndex(g, pin)])
		}
		pos[g] = rankPins(counts)
	}
	return circuit.InputSort{Pos: pos}
}

// rankPins converts per-pin cost measures into π-positions: the pin with
// the smallest measure receives position 0. Ties resolve by pin index.
func rankPins(counts []*big.Int) []int {
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return counts[order[a]].Cmp(counts[order[b]]) < 0
	})
	pos := make([]int, len(counts))
	for rank, pin := range order {
		pos[pin] = rank
	}
	return pos
}
