package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rdfault/internal/circuit"
	"rdfault/internal/gen"
	"rdfault/internal/paths"
)

// resilienceCircuit is big enough that a walk interrupted after a handful
// of paths leaves a substantial frontier, small enough to finish fast.
func resilienceCircuit(seed int64) *circuit.Circuit {
	return gen.RandomCircuit("resil", gen.RandomOptions{Inputs: 8, Gates: 70, Outputs: 6}, seed)
}

// runToCompletion resumes an interrupted enumeration until it completes,
// interrupting each round after `every` newly delivered paths, and
// round-trips every checkpoint through its JSON encoding. It returns the
// final result and the number of interrupted rounds.
func runToCompletion(t *testing.T, c *circuit.Circuit, cr Criterion, opt Options, every int) (*Result, int) {
	t.Helper()
	rounds := 0
	var cp *Checkpoint
	for {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		opt.Context = ctx
		opt.Checkpoint = cp
		opt.OnPath = func(paths.Logical) {
			n++
			if n == every {
				cancel()
				// Cancellation propagates via the watcher goroutine; give
				// it a beat so the walk reliably interrupts mid-run.
				time.Sleep(2 * time.Millisecond)
			}
		}
		res, err := Enumerate(c, cr, opt)
		cancel()
		if err != nil {
			t.Fatalf("Enumerate round %d: %v", rounds, err)
		}
		switch res.Status {
		case StatusComplete:
			return res, rounds
		case StatusCanceled:
			rounds++
			if res.Checkpoint == nil {
				t.Fatalf("round %d: canceled without checkpoint", rounds)
			}
			if !errors.Is(res.Err, ErrCanceled) {
				t.Fatalf("round %d: Err = %v, want ErrCanceled", rounds, res.Err)
			}
			if res.RD != nil {
				t.Fatalf("round %d: interrupted run reported RD", rounds)
			}
			var buf bytes.Buffer
			if err := res.Checkpoint.Encode(&buf); err != nil {
				t.Fatalf("round %d: encode checkpoint: %v", rounds, err)
			}
			cp, err = DecodeCheckpoint(&buf)
			if err != nil {
				t.Fatalf("round %d: decode checkpoint: %v", rounds, err)
			}
		default:
			t.Fatalf("round %d: unexpected status %v", rounds, res.Status)
		}
		if rounds > 10000 {
			t.Fatal("resume did not converge")
		}
	}
}

func sameCounters(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Selected != want.Selected {
		t.Errorf("%s: Selected = %d, want %d", label, got.Selected, want.Selected)
	}
	if got.Segments != want.Segments {
		t.Errorf("%s: Segments = %d, want %d", label, got.Segments, want.Segments)
	}
	if got.Pruned != want.Pruned {
		t.Errorf("%s: Pruned = %d, want %d", label, got.Pruned, want.Pruned)
	}
	if (got.RD == nil) != (want.RD == nil) {
		t.Fatalf("%s: RD nil-ness differs (%v vs %v)", label, got.RD, want.RD)
	}
	if got.RD != nil && got.RD.Cmp(want.RD) != 0 {
		t.Errorf("%s: RD = %v, want %v", label, got.RD, want.RD)
	}
	if len(got.LeadCounts) != len(want.LeadCounts) {
		t.Fatalf("%s: LeadCounts arity %d vs %d", label, len(got.LeadCounts), len(want.LeadCounts))
	}
	for i := range got.LeadCounts {
		if got.LeadCounts[i] != want.LeadCounts[i] {
			t.Errorf("%s: LeadCounts[%d] = %d, want %d", label, i, got.LeadCounts[i], want.LeadCounts[i])
		}
	}
}

// TestResumeMatchesUninterrupted is the core determinism guarantee: a run
// interrupted (repeatedly) and resumed from its checkpoints must land on
// bit-identical counters to a single uninterrupted run, for serial and
// parallel execution, for criteria with and without a sort.
func TestResumeMatchesUninterrupted(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		c := resilienceCircuit(seed)
		sort := Heuristic1Sort(c)
		cases := []struct {
			name string
			cr   Criterion
			sort *circuit.InputSort
		}{
			{"FS", FS, nil},
			{"SigmaPi", SigmaPi, &sort},
		}
		for _, tc := range cases {
			ref, err := Enumerate(c, tc.cr, Options{Sort: tc.sort, CollectLeadCounts: true})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if ref.Status != StatusComplete || !ref.Complete {
				t.Fatalf("reference run not complete: %v", ref.Status)
			}
			for _, workers := range []int{1, 4, 8} {
				opt := Options{Sort: tc.sort, CollectLeadCounts: true, Workers: workers}
				res, rounds := runToCompletion(t, c, tc.cr, opt, 40)
				if rounds == 0 {
					t.Fatalf("seed %d %s w=%d: run was never interrupted; enlarge the circuit",
						seed, tc.name, workers)
				}
				label := tc.name + "/" + string(rune('0'+workers))
				sameCounters(t, label, res, ref)
			}
		}
	}
}

// TestResumeUnboundedCheckpoint resumes a checkpoint written before
// implication was cone-bounded: testdata/alupipe4-heu2-sigmapi.ckpt is a
// serial Heuristic 2 σ^π walk on ALUPipeline(4) interrupted halfway
// through. Its snapshots hold forward values on gates outside the output
// cones their branch can reach, which the bounded engine never derives.
// The resumed walk must land on the uninterrupted run's counters, and
// those must be the ones the unbounded engine counted.
func TestResumeUnboundedCheckpoint(t *testing.T) {
	c := gen.ALUPipeline(4, gen.XorNAND)
	sort, _, _, err := Heuristic2SortWorkers(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(filepath.Join("testdata", "alupipe4-heu2-sigmapi.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	reach := c.Flat().Reach
	outside := 0
	for _, tk := range cp.Tasks {
		for _, g := range tk.SnapGates {
			if !tk.IsRoot && reach[g]&reach[tk.EdgeTo] == 0 {
				outside++
			}
		}
	}
	if outside == 0 {
		t.Fatal("no snapshot value lies outside its branch's bound; the fixture tests nothing")
	}
	want, err := Enumerate(c, SigmaPi, Options{Sort: &sort})
	if err != nil {
		t.Fatal(err)
	}
	if want.Selected != 6076 || want.Segments != 35954 || want.Pruned != 1444 {
		t.Fatalf("uninterrupted run counts selected=%d segments=%d pruned=%d, the unbounded engine counted 6076/35954/1444",
			want.Selected, want.Segments, want.Pruned)
	}
	for _, workers := range []int{1, 4} {
		got, err := Enumerate(c, SigmaPi, Options{Sort: &sort, Checkpoint: cp, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusComplete {
			t.Fatalf("w=%d: resumed run ended %v", workers, got.Status)
		}
		sameCounters(t, fmt.Sprintf("resumed w=%d", workers), got, want)
	}
}

// TestImmediateCancel: an already-canceled context returns cleanly with
// the entire work list checkpointed, and resuming that checkpoint equals
// a fresh run.
func TestImmediateCancel(t *testing.T) {
	c := resilienceCircuit(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := Enumerate(c, FS, Options{Context: ctx, Workers: workers})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if res.Status != StatusCanceled {
			t.Fatalf("w=%d: status %v, want canceled", workers, res.Status)
		}
		if res.Selected != 0 || res.Segments != 0 {
			t.Fatalf("w=%d: immediate cancel counted work (%d selected, %d segments)",
				workers, res.Selected, res.Segments)
		}
		if res.Checkpoint == nil || res.Checkpoint.Pending() == 0 {
			t.Fatalf("w=%d: immediate cancel produced no checkpoint frontier", workers)
		}
		ref, err := Enumerate(c, FS, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := Enumerate(c, FS, Options{Workers: workers, Checkpoint: res.Checkpoint})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if resumed.Status != StatusComplete {
			t.Fatalf("resume status %v", resumed.Status)
		}
		sameCounters(t, "immediate-cancel resume", resumed, ref)
	}
}

// TestDeadlineStatus: Options.Deadline expiry surfaces as StatusDeadline +
// ErrDeadline with a resumable checkpoint, and resuming (without a
// deadline) completes to the uninterrupted counters.
func TestDeadlineStatus(t *testing.T) {
	// Large enough that a 1ns budget always fires before the walk ends.
	c := gen.RandomCircuit("deadline", gen.RandomOptions{Inputs: 10, Gates: 160, Outputs: 8}, 11)
	ref, err := Enumerate(c, FS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := Enumerate(c, FS, Options{Workers: workers, Deadline: time.Nanosecond})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if res.Status != StatusDeadline {
			t.Fatalf("w=%d: status %v, want deadline", workers, res.Status)
		}
		if !errors.Is(res.Err, ErrDeadline) {
			t.Fatalf("w=%d: Err = %v, want ErrDeadline", workers, res.Err)
		}
		if !res.Status.Interrupted() || res.Checkpoint == nil {
			t.Fatalf("w=%d: no checkpoint on deadline", workers)
		}
		cp := res.Checkpoint
		total := res.counters()
		// Resume (possibly over several deadline rounds) to completion.
		for rounds := 0; ; rounds++ {
			if rounds > 10000 {
				t.Fatal("deadline resume did not converge")
			}
			final, err := Enumerate(c, FS, Options{Workers: workers, Checkpoint: cp})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if final.Status == StatusComplete {
				total = final.counters()
				if total.Selected != ref.Selected || total.Segments != ref.Segments || total.Pruned != ref.Pruned {
					t.Fatalf("w=%d: resumed counters (%d,%d,%d) != reference (%d,%d,%d)",
						workers, total.Selected, total.Segments, total.Pruned,
						ref.Selected, ref.Segments, ref.Pruned)
				}
				if final.RD == nil || final.RD.Cmp(ref.RD) != 0 {
					t.Fatalf("w=%d: resumed RD %v != %v", workers, final.RD, ref.RD)
				}
				break
			}
			cp = final.Checkpoint
		}
	}
}

// TestNoGoroutineLeakAfterTimeout: a deadline-interrupted run must leave
// no watcher or worker goroutines behind, across worker counts.
func TestNoGoroutineLeakAfterTimeout(t *testing.T) {
	c := gen.RandomCircuit("leak", gen.RandomOptions{Inputs: 10, Gates: 160, Outputs: 8}, 5)
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4, 8} {
		for i := 0; i < 3; i++ {
			if _, err := Enumerate(c, FS, Options{Workers: workers, Deadline: 100 * time.Microsecond}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerPanicIsolation: a panic inside one walk degrades the run
// instead of crashing the process; the crash report carries the offending
// path prefix, errors.Is matches ErrWorkerPanic, and the remaining work
// still finishes.
func TestWorkerPanicIsolation(t *testing.T) {
	c := resilienceCircuit(9)
	for _, workers := range []int{1, 4} {
		n := 0
		res, err := Enumerate(c, FS, Options{
			Workers: workers,
			OnPath: func(paths.Logical) {
				n++
				if n == 25 {
					panic("injected fault")
				}
			},
		})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if res.Status != StatusDegraded {
			t.Fatalf("w=%d: status %v, want degraded", workers, res.Status)
		}
		if len(res.WorkerErrors) == 0 {
			t.Fatalf("w=%d: no WorkerErrors", workers)
		}
		we := res.WorkerErrors[0]
		if we.Value != "injected fault" || len(we.PathGates) == 0 || we.Stack == "" {
			t.Fatalf("w=%d: incomplete crash report: %+v", workers, we)
		}
		if !errors.Is(res.Err, ErrWorkerPanic) {
			t.Fatalf("w=%d: Err = %v, want ErrWorkerPanic", workers, res.Err)
		}
		var wErr *WorkerError
		if !errors.As(res.Err, &wErr) {
			t.Fatalf("w=%d: Err does not unwrap to *WorkerError", workers)
		}
		if res.RD != nil || res.Checkpoint != nil {
			t.Fatalf("w=%d: degraded run must not report RD or a checkpoint", workers)
		}
		// The degraded run still walked (and counted) the rest.
		if res.Selected < 25 {
			t.Fatalf("w=%d: surviving workers did not finish (%d selected)", workers, res.Selected)
		}
	}
}

// TestCheckpointValidation: a checkpoint refuses to resume against a
// different circuit, criterion or sort, and survives a file round trip.
func TestCheckpointValidation(t *testing.T) {
	c := resilienceCircuit(13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Enumerate(c, FS, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cp := res.Checkpoint
	if cp == nil {
		t.Fatal("no checkpoint")
	}

	path := filepath.Join(t.TempDir(), "walk.ckpt")
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Pending() != cp.Pending() || rt.CircuitFP != cp.CircuitFP {
		t.Fatal("checkpoint file round trip mangled the frontier")
	}

	other := resilienceCircuit(14)
	if _, err := Enumerate(other, FS, Options{Checkpoint: rt}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different circuit")
	}
	if _, err := Enumerate(c, NonRobust, Options{Checkpoint: rt}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different criterion")
	}
	sort := Heuristic1Sort(c)
	if _, err := Enumerate(c, SigmaPi, Options{Sort: &sort, Checkpoint: rt}); err == nil {
		t.Fatal("resume accepted a checkpoint across criteria/sorts")
	}
	bad := *rt
	bad.Version = CheckpointVersion + 1
	if _, err := Enumerate(c, FS, Options{Checkpoint: &bad}); err == nil {
		t.Fatal("resume accepted an unknown checkpoint version")
	}
}

// TestResumeWithLimit: a resumed run honors the original path budget
// across the interruption (baseline counts against the limit).
func TestResumeWithLimit(t *testing.T) {
	c := resilienceCircuit(21)
	ref, err := Enumerate(c, FS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	limit := ref.Selected / 2
	if limit < 10 {
		t.Skip("circuit too small for a meaningful limit")
	}
	// Interrupt well before the limit, then resume with it.
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	res, err := Enumerate(c, FS, Options{
		Context: ctx,
		Limit:   limit,
		OnPath: func(paths.Logical) {
			n++
			if n == 5 {
				cancel()
				time.Sleep(2 * time.Millisecond)
			}
		},
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCanceled {
		t.Fatalf("status %v, want canceled", res.Status)
	}
	resumed, err := Enumerate(c, FS, Options{Limit: limit, Checkpoint: res.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status != StatusTruncated {
		t.Fatalf("resumed status %v, want truncated", resumed.Status)
	}
	if resumed.Selected != limit {
		t.Fatalf("resumed Selected = %d, want limit %d", resumed.Selected, limit)
	}
	// A baseline already past the budget short-circuits.
	past, err := Enumerate(c, FS, Options{Limit: res.Checkpoint.Counters.Selected, Checkpoint: res.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if past.Status != StatusTruncated || past.Selected != res.Checkpoint.Counters.Selected {
		t.Fatalf("past-budget resume: status %v selected %d", past.Status, past.Selected)
	}
}
