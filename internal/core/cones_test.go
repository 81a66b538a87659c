package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"
	"time"

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

// An interrupted restricted walk reports core's typed interruptions, no
// cone counters that look exact, and a restricted-kind checkpoint.
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
		if !errors.Is(walk.Err, tc.want) || walk.Complete || walk.Checkpoint == nil ||
			walk.Checkpoint.Version != ConesCheckpointVersion {
			t.Fatalf("walk ended %v (%v) with checkpoint %v, want %v and a version %d checkpoint",
				walk.Status, walk.Err, walk.Checkpoint != nil, tc.want, ConesCheckpointVersion)
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

// runConesToCompletion resumes an interrupted restricted walk until it
// completes. Each round is cut by a deadline that starts at ten
// microseconds and grows by a tenth per round, so the walk is
// interrupted at many points; every checkpoint is round-tripped through
// its encoding. It returns the final walk, the number of interrupted
// rounds and how many of them cut a DFS subtree (a checkpoint holding a
// branch, not only root tasks).
func runConesToCompletion(t *testing.T, c *circuit.Circuit, cr Criterion, outputs []circuit.GateID, opt Options) ([]*Result, *Result, int, int) {
	t.Helper()
	rounds, branched := 0, 0
	deadline := 10 * time.Microsecond
	for {
		opt.Deadline = deadline
		cones, walk, err := EnumerateCones(c, cr, outputs, opt)
		if err != nil {
			t.Fatalf("round %d: %v", rounds, err)
		}
		switch walk.Status {
		case StatusComplete:
			return cones, walk, rounds, branched
		case StatusDeadline:
			rounds++
			if walk.Checkpoint == nil || walk.RD != nil || !errors.Is(walk.Err, ErrDeadline) {
				t.Fatalf("round %d: interrupted walk checkpoint=%v rd=%v err=%v", rounds, walk.Checkpoint != nil, walk.RD, walk.Err)
			}
			if slices.ContainsFunc(walk.Checkpoint.Tasks, func(t CheckpointTask) bool { return !t.IsRoot }) {
				branched++
			}
			var buf bytes.Buffer
			if err := walk.Checkpoint.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if opt.Checkpoint, err = DecodeCheckpoint(&buf); err != nil {
				t.Fatalf("round %d: decode checkpoint: %v", rounds, err)
			}
		default:
			t.Fatalf("round %d: walk ended %v", rounds, walk.Status)
		}
		if rounds > 1000 {
			t.Fatal("resume did not converge")
		}
		deadline += deadline / 10
	}
}

// TestEnumerateConesResumeMatchesUninterrupted is the restricted walk's
// resume guarantee: a walk cut at many points and resumed from its
// checkpoints lands on the uninterrupted walk's counters, per output and
// for the walk, under FS and σ^π, at one and four workers, for all
// outputs and for every other output.
func TestEnumerateConesResumeMatchesUninterrupted(t *testing.T) {
	branchedTotal := 0
	for _, c := range []*circuit.Circuit{resilienceCircuit(1), gen.ALU(4, gen.XorNAND), gen.ALUPipeline(4, gen.XorNAND)} {
		var alternate []circuit.GateID
		for i, po := range c.Outputs() {
			if i%2 == 1 {
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
				wantCones, wantWalk, err := EnumerateCones(c, cr, outputs, Options{Sort: sort})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%v/%d outputs/w=%d", c.Name(), cr, len(outputs), workers)
					cones, walk, rounds, branched := runConesToCompletion(t, c, cr, outputs, Options{Sort: sort, Workers: workers})
					if rounds == 0 {
						t.Fatalf("%s: the walk was never interrupted", label)
					}
					t.Logf("%s: %d interruptions, %d inside a DFS subtree", label, rounds, branched)
					branchedTotal += branched
					for i, got := range append([]*Result{walk}, cones...) {
						want := wantWalk
						if i > 0 {
							want = wantCones[i-1]
						}
						if got.Total.Cmp(want.Total) != 0 || got.RD.Cmp(want.RD) != 0 || got.Selected != want.Selected ||
							got.Segments != want.Segments || got.Pruned != want.Pruned {
							t.Fatalf("%s after %d rounds, result %d: total=%v rd=%v selected=%d segments=%d pruned=%d, uninterrupted total=%v rd=%v selected=%d segments=%d pruned=%d",
								label, rounds, i, got.Total, got.RD, got.Selected, got.Segments, got.Pruned,
								want.Total, want.RD, want.Selected, want.Segments, want.Pruned)
						}
					}
				}
			}
		}
	}
	if branchedTotal == 0 {
		t.Fatal("no interruption cut a DFS subtree; only root tasks were checkpointed")
	}
}

// TestEnumerateConesCheckpointKinds: each entry point refuses the other's
// checkpoint with ErrCheckpointKind, and a restricted checkpoint resumes
// only the outputs it was cut from.
func TestEnumerateConesCheckpointKinds(t *testing.T) {
	c := resilienceCircuit(5)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, walk, err := EnumerateCones(c, FS, c.Outputs(), Options{Context: canceled})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Enumerate(c, FS, Options{Context: canceled})
	if err != nil {
		t.Fatal(err)
	}
	restricted := walk.Checkpoint
	if restricted == nil || whole.Checkpoint == nil ||
		restricted.Version != ConesCheckpointVersion || whole.Checkpoint.Version != CheckpointVersion {
		t.Fatal("interrupted walks left no checkpoints of their kinds")
	}
	if _, err := Enumerate(c, FS, Options{Checkpoint: restricted}); !errors.Is(err, ErrCheckpointKind) {
		t.Fatalf("Enumerate resumed a restricted checkpoint: %v", err)
	}
	if _, _, err := EnumerateCones(c, FS, c.Outputs(), Options{Checkpoint: whole.Checkpoint}); !errors.Is(err, ErrCheckpointKind) {
		t.Fatalf("EnumerateCones resumed a whole-circuit checkpoint: %v", err)
	}
	if _, _, err := EnumerateCones(c, FS, c.Outputs()[1:], Options{Checkpoint: restricted}); err == nil || errors.Is(err, ErrCheckpointKind) {
		t.Fatalf("a checkpoint resumed other outputs: %v", err)
	}
	if _, _, err := EnumerateCones(c, FS, c.Outputs(), Options{Checkpoint: restricted}); err != nil {
		t.Fatalf("the checkpoint's own outputs refused it: %v", err)
	}
}
