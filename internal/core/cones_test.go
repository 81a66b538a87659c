package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"rdfault/internal/circuit"
	"rdfault/internal/gen"
	"rdfault/internal/paths"
)

// perCone is the reference EnumerateCones must reproduce: every
// requested output's cone extracted, the sort projected onto it, and
// walked on its own.
func perCone(t *testing.T, c *circuit.Circuit, cr Criterion, sort *circuit.InputSort, outputs []circuit.GateID) []*Result {
	t.Helper()
	var out []*Result
	for _, po := range outputs {
		cone, mapping, err := c.Cone(po)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{}
		if sort != nil {
			p := sort.Cone(mapping)
			opt.Sort = &p
		}
		res, err := Enumerate(cone, cr, opt)
		if err != nil {
			t.Fatalf("cone %s: %v", cone.Name(), err)
		}
		out = append(out, res)
	}
	return out
}

// TestEnumerateConesMatchesPerCone pins the one-walk split to the
// per-cone walks it replaces: Total, Selected, RD, Segments and Pruned
// of every requested cone, under FS and σ^π, at one and four workers,
// for all outputs and for every other output. The suite covers the
// paper example, the ISCAS analogues under coneSumLimit and random
// circuits with more than 64 outputs, whose Reach buckets are shared.
func TestEnumerateConesMatchesPerCone(t *testing.T) {
	suite := append([]gen.Named{{Paper: "paper-example", C: gen.PaperExample()}}, gen.ISCAS85Suite()...)
	// The eco benchmark's rnd55a and rnd55b (67 and 69 outputs).
	for _, seed := range []int64{3, 4} {
		wide := gen.RandomCircuit("rnd55", gen.RandomOptions{Inputs: 40, Gates: 160, Outputs: 55}, seed)
		if len(wide.Outputs()) <= 64 {
			t.Fatalf("random circuit seed %d has %d outputs, want more than 64", seed, len(wide.Outputs()))
		}
		suite = append(suite, gen.Named{Paper: fmt.Sprintf("rnd55-seed%d", seed), C: wide})
	}
	tested := 0
	for _, nc := range suite {
		c := nc.C
		if paths.NewCounts(c).Logical().Cmp(big.NewInt(coneSumLimit)) > 0 {
			continue
		}
		tested++
		var alternate []circuit.GateID
		for i, po := range c.Outputs() {
			if i%2 == 0 {
				alternate = append(alternate, po)
			}
		}
		h1 := Heuristic1Sort(c)
		for _, cr := range []Criterion{FS, SigmaPi} {
			var sort *circuit.InputSort
			if cr == SigmaPi {
				sort = &h1
			}
			for _, outputs := range [][]circuit.GateID{c.Outputs(), alternate} {
				want := perCone(t, c, cr, sort, outputs)
				for _, workers := range []int{1, 4} {
					cones, walk, err := EnumerateCones(c, cr, outputs, Options{Sort: sort, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if walk.Status != StatusComplete || len(cones) != len(outputs) {
						t.Fatalf("%s/%v: walk ended %v with %d cones", nc.Paper, cr, walk.Status, len(cones))
					}
					var selected, segments int64
					for i, got := range cones {
						w := want[i]
						if got.Total.Cmp(w.Total) != 0 || got.Selected != w.Selected || got.RD.Cmp(w.RD) != 0 ||
							got.Segments != w.Segments || got.Pruned != w.Pruned || got.Status != StatusComplete {
							t.Fatalf("%s/%v/workers=%d cone %d: got total=%v selected=%d rd=%v segments=%d pruned=%d, per-cone walk total=%v selected=%d rd=%v segments=%d pruned=%d",
								nc.Paper, cr, workers, i, got.Total, got.Selected, got.RD, got.Segments, got.Pruned,
								w.Total, w.Selected, w.RD, w.Segments, w.Pruned)
						}
						selected += got.Selected
						segments += got.Segments
					}
					if walk.Selected != selected || walk.Segments > segments {
						t.Fatalf("%s/%v: walk selected=%d segments=%d against cone sums %d/%d",
							nc.Paper, cr, walk.Selected, walk.Segments, selected, segments)
					}
				}
			}
		}
	}
	if tested < 4 {
		t.Fatalf("only %d circuits under the %d-path limit; property barely exercised", tested, coneSumLimit)
	}
}

// An interrupted restricted walk reports core's typed interruptions and
// no cone counters that look exact.
func TestEnumerateConesInterrupted(t *testing.T) {
	c := gen.ALU(8, gen.XorNAND)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		opt  Options
		want error
	}{
		{Options{Context: canceled}, ErrCanceled},
		{Options{Context: canceled, Workers: 4}, ErrCanceled},
		{Options{Deadline: 1}, ErrDeadline},
	} {
		cones, walk, err := EnumerateCones(c, FS, c.Outputs(), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(walk.Err, tc.want) || walk.Complete || walk.Checkpoint != nil {
			t.Fatalf("walk ended %v (%v), want %v and no checkpoint", walk.Status, walk.Err, tc.want)
		}
		for _, r := range cones {
			if r.RD != nil || !errors.Is(r.Err, tc.want) {
				t.Fatalf("cone of an interrupted walk reports rd=%v err=%v", r.RD, r.Err)
			}
		}
	}
}

// Options the restricted walk cannot honour, and requests that are not
// a set of outputs, are errors rather than silently different counters.
func TestEnumerateConesRejectsUnsupported(t *testing.T) {
	c := gen.PaperExample()
	for _, opt := range []Options{{Limit: 1}, {CollectLeadCounts: true}, {Exact: true}, {NoPrune: true}} {
		if _, _, err := EnumerateCones(c, FS, c.Outputs(), opt); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
	po := c.Outputs()[0]
	if _, _, err := EnumerateCones(c, FS, []circuit.GateID{po, po}, Options{}); err == nil {
		t.Fatal("duplicate output accepted")
	}
	if _, _, err := EnumerateCones(c, FS, c.Inputs()[:1], Options{}); err == nil {
		t.Fatal("a primary input accepted as an output")
	}
	if _, _, err := EnumerateCones(c, SigmaPi, c.Outputs(), Options{}); err == nil {
		t.Fatal("SigmaPi without a sort accepted")
	}
}
