// Recovery and fencing at close range: resume of sealed and mid-run
// journals, the in-process term fence, store consultation at takeover,
// and the append-failure abort discipline.
package fleet

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/gen"
	"rdfault/internal/store"
)

// journaledRun runs the chaos circuit with a journal at path, arming
// rules for the duration, and returns the run error.
func journaledRun(t *testing.T, cfg Config, path string, rules ...faultinject.Rule) (*Result, error) {
	t.Helper()
	jw, err := journal.Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	restore := faultinject.Activate(faultinject.NewPlan(rules...))
	defer restore()
	cfg.Journal = jw
	return Run(context.Background(), cfg, gen.RippleAdder(4, gen.XorNAND), core.Heuristic2)
}

// A sealed journal resumes to the identical result without touching a
// single worker: every cone retires from its journaled answer.
func TestResumeSealedJournalMergesWithoutDispatch(t *testing.T) {
	ref := chaosRef(t)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "coord.journal")

	first, err := journaledRun(t, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, first, ref)

	res, err := Resume(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	if res.Segments != first.Segments {
		t.Fatalf("resumed segments %d, original %d", res.Segments, first.Segments)
	}
	if res.Stats.Dispatches != 0 {
		t.Fatalf("sealed resume dispatched %d times; the journal alone should merge", res.Stats.Dispatches)
	}
	if res.Stats.JournalRetired != int64(res.Stats.Cones) {
		t.Fatalf("retired %d of %d cones from the journal", res.Stats.JournalRetired, res.Stats.Cones)
	}
	var sawSealedTakeover bool
	for _, ev := range res.Events {
		if ev.Kind == EvTakeover && ev.Detail == "sealed" {
			sawSealedTakeover = true
		}
	}
	if !sawSealedTakeover {
		t.Fatal("no takeover event marking the journal sealed")
	}
}

// A mid-run journal re-dispatches ONLY the unretired cones: no cone
// with a journaled answer appears in the resumed run's dispatch log.
// The second worker answer is held back, so the first group merge, which
// kills the coordinator, leaves the other group's cones to re-dispatch.
func TestResumeRedispatchesOnlyUnretiredCones(t *testing.T) {
	ref := chaosRef(t)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "coord.journal")

	_, err := journaledRun(t, cfg, path, faultinject.Rule{
		Point: faultinject.PointCoordKill + ".mid-merge",
		Kind:  faultinject.KindError, Hit: 1, Count: 1,
	}, faultinject.Rule{
		Point: faultinject.PointFleetLatency,
		Kind:  faultinject.KindSleep, Delay: 300 * time.Millisecond, Hit: 2, Count: 1,
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("primary survived: %v", err)
	}

	res, err := Resume(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	if res.Stats.JournalRetired < 2 {
		t.Fatalf("retired %d cones, the kill guaranteed at least 2 journaled answers", res.Stats.JournalRetired)
	}
	retired := map[string]bool{}
	for _, ev := range res.Events {
		if ev.Kind == EvJournalRetire {
			retired[ev.Cone] = true
		}
	}
	dispatched := 0
	for _, ev := range res.Events {
		if ev.Kind != EvDispatch {
			continue
		}
		for _, cone := range strings.Split(ev.Cone, ",") {
			dispatched++
			if retired[cone] {
				t.Fatalf("cone %s was retired from the journal AND re-dispatched", cone)
			}
		}
	}
	if dispatched == 0 {
		t.Fatal("the resumed run dispatched nothing; no pending cone was tested")
	}
}

// The in-process fence: a zombie coordinator whose term is superseded
// mid-run dies typed on its next append, counts the rejection, and the
// successor resumes to drift-free counters.
func TestZombieCoordinatorFencedInProcess(t *testing.T) {
	ref := chaosRef(t)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "coord.journal")

	fence := journal.NewFence()
	term := fence.Acquire(0)
	jw, err := journal.Create(path, term, fence)
	if err != nil {
		t.Fatal(err)
	}

	// Supersede the primary's term the moment its first cone completes:
	// the fence lands synchronously in the event sink, so the next
	// append — at latest, the seal — is rejected.
	var deposed sync.Once
	var events []Event
	var mu sync.Mutex
	pcfg := cfg
	pcfg.Journal = jw
	pcfg.Fence = fence
	pcfg.OnEvent = func(ev Event) {
		if ev.Kind == EvComplete {
			deposed.Do(func() { fence.Acquire(0) })
		}
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	_, runErr := Run(context.Background(), pcfg, gen.RippleAdder(4, gen.XorNAND), core.Heuristic2)
	jw.Close()
	if !errors.Is(runErr, ErrStaleCoordinator) {
		t.Fatalf("superseded primary died with %v, want ErrStaleCoordinator", runErr)
	}
	mu.Lock()
	fenced := 0
	for _, ev := range events {
		if ev.Kind == EvFenced {
			fenced++
		}
	}
	mu.Unlock()
	if fenced == 0 {
		t.Fatal("no coord.fenced event from the superseded primary")
	}

	// The successor acquires the next term on the SAME fence — proof the
	// fence hands over cleanly — and finishes the job.
	rcfg := cfg
	rcfg.Fence = fence
	res, err := Resume(context.Background(), rcfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	coordAudit(t, path)
}

// A failed journal append aborts the run rather than proceed past an
// unjournaled side effect — and the journal that remains still resumes
// to the right answer.
func TestJournalAppendFailureAbortsRun(t *testing.T) {
	ref := chaosRef(t)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "coord.journal")

	_, err := journaledRun(t, cfg, path, faultinject.Rule{
		Point: faultinject.PointCoordJournalLatency,
		Kind:  faultinject.KindError, Hit: 3, Count: 1,
	})
	if err == nil || errors.Is(err, ErrKilled) {
		t.Fatalf("run survived a failed append: %v", err)
	}

	res, err := Resume(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	coordAudit(t, path)
}

// Takeover consults the result store before re-dispatching: a cone with
// no journaled answer but a warm store entry retires from the store,
// and the journal records the store-sourced answer.
func TestResumeConsultsStoreForUnansweredCones(t *testing.T) {
	ref := chaosRef(t)
	st, err := store.Open(filepath.Join(t.TempDir(), "rdstore"))
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	cfg.Store = st
	path := filepath.Join(t.TempDir(), "coord.journal")

	// Kill the primary on a COLD store (its journal carries store keys
	// but no store answers exist yet), then warm the store with a clean
	// run of the same job. Takeover finds every unanswered cone in the
	// store and never dispatches.
	_, err = journaledRun(t, cfg, path, faultinject.Rule{
		Point: faultinject.PointCoordKill + ".mid-dispatch",
		Kind:  faultinject.KindError, Hit: 1, Count: 1,
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("primary survived: %v", err)
	}
	warmPath := filepath.Join(t.TempDir(), "warm.journal")
	if _, err := journaledRun(t, cfg, warmPath); err != nil {
		t.Fatal(err)
	}

	res, err := Resume(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	// Any cone the dying primary managed to answer retires from the
	// journal; every other cone retires from the store. Nothing runs.
	if res.Stats.StoreHits == 0 {
		t.Fatal("takeover consulted the store for nothing")
	}
	if got := res.Stats.StoreHits + res.Stats.JournalRetired; got != int64(res.Stats.Cones) {
		t.Fatalf("store hits %d + journal retired %d != %d cones",
			res.Stats.StoreHits, res.Stats.JournalRetired, res.Stats.Cones)
	}
	if res.Stats.Dispatches != 0 {
		t.Fatalf("takeover dispatched %d times with a fully warm store", res.Stats.Dispatches)
	}
	coordAudit(t, path)
}

// Resume's preconditions fail typed: an empty journal has no job, and a
// caller-supplied writer is a misuse (Resume opens its own).
func TestResumePreconditions(t *testing.T) {
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "empty.journal")
	jw, err := journal.Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()
	if _, err := Resume(context.Background(), cfg, path); !errors.Is(err, ErrNoJournaledJob) {
		t.Fatalf("empty journal resumed: %v", err)
	}

	bad := cfg
	bad.Journal, err = journal.Create(filepath.Join(t.TempDir(), "own.journal"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Journal.Close()
	if _, err := Resume(context.Background(), bad, path); err == nil {
		t.Fatal("Resume accepted a caller-supplied journal writer")
	}
}
