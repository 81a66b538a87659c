package core

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
)

// EnumerateCones runs Algorithm 2 once over c, restricted to the paths
// that end at the given outputs, and splits the counters by output:
// cones[i] is what Enumerate returns for the cone of outputs[i]
// (c.Cone, under opt.Sort projected onto it by InputSort.Cone), Duration
// aside. walk reports the walk itself: Selected over all requested
// outputs, Segments and Pruned the extensions it performed, so a prefix
// shared by several cones counts once there and once per cone in cones.
// Every cone shares the walk's Status and Err.
//
// The walk skips every PI and fanout edge that reaches no requested
// output, and bounds implication to the requested outputs' cones on top
// of the usual per-gate bound. An extension into gate h is an extension
// of every requested cone containing h, with the same verdict (DESIGN
// §5), so each cone's Segments and Pruned are sums of per-gate tallies
// over the cone's gates and its Selected is the tally at its output.
//
// It takes opt.Sort, Workers, Context, Deadline and Checkpoint; any
// other option is an error. An interrupted walk ends StatusDeadline or
// StatusCanceled with ErrDeadline or ErrCanceled, partial counters and
// walk.Checkpoint, which a later call with the same outputs resumes to
// the uninterrupted walk's counters. That checkpoint carries
// ConesCheckpointVersion: Enumerate refuses it, and EnumerateCones
// refuses Enumerate's, with ErrCheckpointKind.
func EnumerateCones(c *circuit.Circuit, cr Criterion, outputs []circuit.GateID, opt Options) (cones []*Result, walk *Result, err error) {
	if opt.Limit > 0 || opt.CollectLeadCounts || opt.OnPath != nil ||
		opt.NoPrune || opt.Exact || opt.Progress != nil || opt.onPrune != nil {
		return nil, nil, errors.New("core: EnumerateCones takes only the Sort, Workers, Context, Deadline and Checkpoint options")
	}
	if err := checkSort(c, cr, opt.Sort); err != nil {
		return nil, nil, err
	}
	ckptSort := opt.Sort
	if cr != SigmaPi {
		ckptSort = nil
	}
	an := analysis.For(c)
	n := c.NumGates()
	reach := an.Flat().Reach
	// want closes the requested outputs under fanin; gate IDs are
	// topological, so one reverse pass does it.
	want := make([]bool, n)
	var within uint64
	for _, o := range outputs {
		if c.Type(o) != circuit.Output || want[o] {
			return nil, nil, fmt.Errorf("core: gate %q is not an output or is requested twice", c.Gate(o).Name)
		}
		want[o] = true
		within |= reach[o]
	}
	for g := n - 1; g >= 0; g-- {
		if want[g] {
			for _, f := range c.Fanin(circuit.GateID(g)) {
				want[f] = true
			}
		}
	}
	walk = &Result{Criterion: cr, Total: new(big.Int)}
	tally := make([]coneTally, n)
	var tasks []task
	if cp := opt.Checkpoint; cp != nil {
		if err := cp.validateCones(c, cr, ckptSort, outputs); err != nil {
			return nil, nil, err
		}
		tasks = cp.toTasks()
		walk.Selected, walk.Segments, walk.Pruned = cp.Counters.Selected, cp.Counters.Segments, cp.Counters.Pruned
		for _, t := range cp.Tallies {
			tally[t.Gate] = coneTally{segments: t.Segments, pruned: t.Pruned, selected: t.Selected}
		}
	} else {
		tasks = rootTasks(c, want)
	}
	ctx, cancel := runContext(opt)
	defer cancel()

	start := time.Now()
	var p *pass
	if ctx.Err() == nil {
		p = walkTasks(ctx, an, cr, &opt, tasks, 0, func(w *walker) {
			w.within, w.want = within, want
			w.tally = make([]coneTally, n)
		})
		for _, w := range p.ws {
			walk.add(w)
			for g, t := range w.tally {
				tally[g].segments += t.segments
				tally[g].pruned += t.pruned
				tally[g].selected += t.selected
			}
		}
	}

	ct := an.Counts()
	seen := make([]int32, n) // seen[g] == i+1: g already folded into cone i
	var stack []circuit.GateID
	cones = make([]*Result, len(outputs))
	for i, o := range outputs {
		r := &Result{
			Criterion: cr,
			Total:     new(big.Int).Lsh(ct.Up(o), 1),
			Selected:  tally[o].selected,
		}
		stack = append(stack[:0], o)
		seen[o] = int32(i + 1)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r.Segments += tally[g].segments
			r.Pruned += tally[g].pruned
			for _, f := range c.Fanin(g) {
				if seen[f] != int32(i+1) {
					seen[f] = int32(i + 1)
					stack = append(stack, f)
				}
			}
		}
		walk.Total.Add(walk.Total, r.Total)
		cones[i] = r
	}

	switch {
	case p != nil && len(p.we.errs) > 0:
		walk.degrade(p.we.errs)
	case p == nil || (p.canceled && len(p.fr.tasks) > 0):
		walk.Status, walk.Err = interruption(ctx)
		if p != nil {
			tasks = p.fr.tasks
		}
		walk.Checkpoint = buildConesCheckpoint(c, cr, ckptSort, walk, outputs, tally, tasks)
	default:
		walk.complete()
	}
	walk.Duration = time.Since(start)
	for _, r := range cones {
		r.Status, r.Err, r.Duration = walk.Status, walk.Err, walk.Duration
		if walk.Complete {
			r.complete()
		}
	}
	return cones, walk, nil
}
