package store

import (
	"bytes"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/gen"
	"rdfault/internal/telemetry"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "rdstore"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertSameCounters requires two store results to agree on every
// merged counter — the bit-identical bar of the equivalence suite.
func assertSameCounters(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Total.Cmp(got.Total) != 0 || want.RD.Cmp(got.RD) != 0 ||
		want.Selected != got.Selected || want.Segments != got.Segments ||
		want.Pruned != got.Pruned {
		t.Fatalf("counters diverge:\nwant total=%v selected=%d rd=%v segments=%d pruned=%d\ngot  total=%v selected=%d rd=%v segments=%d pruned=%d",
			want.Total, want.Selected, want.RD, want.Segments, want.Pruned,
			got.Total, got.Selected, got.RD, got.Segments, got.Pruned)
	}
	if want.PerCone == nil || got.PerCone == nil {
		return // a pure hit reports no per-cone provenance
	}
	if len(want.PerCone) != len(got.PerCone) {
		t.Fatalf("%d cones, want %d", len(got.PerCone), len(want.PerCone))
	}
	for i, w := range want.PerCone {
		g := got.PerCone[i]
		if w.Name != g.Name || w.Key != g.Key || w.Selected != g.Selected || w.Segments != g.Segments {
			t.Fatalf("cone %d diverges: want %+v, got %+v", i, w, g)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := openStore(t)
	run := &RunRecord{Circuit: "x", TotalPaths: "42", RD: "7", Selected: 35, Cones: 2}
	if err := s.PutRun("k1", run); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRun("k1")
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalPaths != "42" || got.Selected != 35 || got.Cones != 2 {
		t.Fatalf("round trip mangled record: %+v", got)
	}
	cone := &ConeRecord{Cone: "po0", TotalPaths: "9", RD: "3", Selected: 6, Segments: 17}
	if err := s.PutCone("c1", cone); err != nil {
		t.Fatal(err)
	}
	gc, err := s.GetCone("c1")
	if err != nil {
		t.Fatal(err)
	}
	if gc.Segments != 17 || gc.RD != "3" {
		t.Fatalf("cone round trip mangled record: %+v", gc)
	}
	if _, err := s.GetRun("absent"); !errors.Is(err, ErrMiss) {
		t.Fatalf("missing key: got %v, want ErrMiss", err)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Writes != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// A flipped byte on disk must surface as the typed corrupt error and a
// store.corrupt event — never as a parsed payload.
func TestStoreCorruptEntryTyped(t *testing.T) {
	s := openStore(t)
	var events bytes.Buffer
	s.SetTelemetry(telemetry.NewLog(&events))
	if err := s.PutRun("k1", &RunRecord{Circuit: "x", TotalPaths: "1", RD: "0"}); err != nil {
		t.Fatal(err)
	}
	path := s.path("run", "k1")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte; the envelope still parses, the checksum does
	// not recompute.
	i := bytes.Index(b, []byte(`"circuit":"x"`))
	if i < 0 {
		t.Fatalf("payload not found in %s", b)
	}
	b[i+len(`"circuit":"`)] = 'y'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.GetRun("k1")
	if !errors.Is(err, ErrCorruptEntry) {
		t.Fatalf("corrupt entry: got %v, want ErrCorruptEntry", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt entry not a *CorruptError: %v", err)
	}
	evs, err := telemetry.ParseJSONL(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == "store.corrupt" {
			found = true
		}
	}
	if !found {
		t.Fatal("no store.corrupt event emitted")
	}
	if s.Stats().Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", s.Stats().Corrupt)
	}
}

// A format-version bump is corruption, not a guess at an old layout.
func TestStoreRejectsForeignFormat(t *testing.T) {
	s := openStore(t)
	path := s.path("run", "k1")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"version":"rdstore/v0","kind":"run","key":"k1","payload":{},"sum":"44bd7ce6016992ae"}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRun("k1"); !errors.Is(err, ErrCorruptEntry) {
		t.Fatalf("foreign format: got %v, want ErrCorruptEntry", err)
	}
}

// The ROADMAP fix this PR lands: results must survive the process.
// Simulated kill-and-restart — a fresh store handle on the same
// directory and a freshly built circuit (new build version, empty
// analysis state, as a new process would have) must warm-hit with zero
// enumeration work and identical counters.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rdstore")
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := IdentifyThrough(s1, gen.ALU(8, gen.XorNAND), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Outcome != "miss" {
		t.Fatalf("cold run outcome %q, want miss", cold.Outcome)
	}

	// "Restart": nothing process-local survives except the directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := IdentifyThrough(s2, gen.ALU(8, gen.XorNAND), opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Outcome != "hit" {
		t.Fatalf("post-restart outcome %q, want hit", warm.Outcome)
	}
	if warm.EnumeratedSegments != 0 || warm.FreshCones != 0 {
		t.Fatalf("post-restart hit did enumeration work: fresh=%d segments=%d",
			warm.FreshCones, warm.EnumeratedSegments)
	}
	assertSameCounters(t, cold, warm)
}

// reference computes the trusted cold counters without the store's
// one-walk path: every output cone extracted, the global sort projected
// onto it and walked on its own by core.Enumerate, then summed.
func reference(t *testing.T, c *circuit.Circuit, opt Options) *Result {
	t.Helper()
	cr := core.SigmaPi
	if opt.Heuristic == core.HeuristicFUS {
		cr = core.FS
	}
	sort, err := core.HeuristicSort(c, opt.Heuristic, opt.Workers)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Total: new(big.Int), RD: new(big.Int), Cones: len(c.Outputs())}
	for _, po := range c.Outputs() {
		cone, mapping, err := c.Cone(po)
		if err != nil {
			t.Fatal(err)
		}
		var proj *circuit.InputSort
		if sort != nil {
			p := sort.Cone(mapping)
			proj = &p
		}
		er, err := core.Enumerate(cone, cr, core.Options{Sort: proj, Workers: opt.Workers})
		if err != nil {
			t.Fatal(err)
		}
		if er.Status != core.StatusComplete {
			t.Fatalf("cone %s ended %v", cone.Name(), er.Status)
		}
		res.Total.Add(res.Total, er.Total)
		res.RD.Add(res.RD, er.RD)
		res.Selected += er.Selected
		res.Segments += er.Segments
		res.Pruned += er.Pruned
		res.PerCone = append(res.PerCone, ConeOutcome{
			Name:     cone.Name(),
			Key:      ConeKey(cone, proj, cr),
			Selected: er.Selected,
			Segments: er.Segments,
		})
	}
	return res
}

// Corrupt store entries (injected at the write path, detected at read
// time by checksum) must fall back to full re-identification — slower,
// never wrong.
func TestChaosStoreCorruptFallsBack(t *testing.T) {
	c := gen.ALU(8, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	want := reference(t, c, opt)

	s := openStore(t)
	var events bytes.Buffer
	s.SetTelemetry(telemetry.NewLog(&events))

	// Populate while every write rots on its way to disk.
	restore := faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointStoreCorrupt,
		Kind:  faultinject.KindCorrupt,
		Seed:  42,
	}))
	cold, err := IdentifyThrough(s, c, opt)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounters(t, want, cold)

	// The warm run finds only corrupt entries: typed detection, full
	// recomputation, correct counters.
	warm, err := IdentifyThrough(s, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounters(t, want, warm)
	if warm.CorruptEntries == 0 {
		t.Fatal("corrupt entries went undetected")
	}
	if warm.FreshCones != warm.Cones {
		t.Fatalf("reused %d cones from a corrupt store", warm.ReusedCones)
	}
	evs, err := telemetry.ParseJSONL(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	corruptEvents := 0
	for _, ev := range evs {
		if ev.Kind == "store.corrupt" {
			corruptEvents++
		}
	}
	if corruptEvents == 0 {
		t.Fatal("no store.corrupt events in the log")
	}

	// Third run: the fallback rewrote clean entries, so the store heals.
	healed, err := IdentifyThrough(s, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Outcome != "hit" || healed.EnumeratedSegments != 0 {
		t.Fatalf("store did not heal: outcome=%q segments=%d", healed.Outcome, healed.EnumeratedSegments)
	}
	assertSameCounters(t, want, healed)
}

// Injected read failures degrade lookups to misses; answers stay right.
func TestChaosStoreReadErrorDegrades(t *testing.T) {
	c := gen.ALU(8, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	s := openStore(t)
	cold, err := IdentifyThrough(s, c, opt)
	if err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointStoreRead,
		Kind:  faultinject.KindError,
	}))
	defer restore()
	warm, err := IdentifyThrough(s, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounters(t, cold, warm)
	if warm.FreshCones != warm.Cones {
		t.Fatal("served cones through a failing read path")
	}
}

// Injected write failures lose persistence, not answers.
func TestChaosStoreWriteErrorLosesNothing(t *testing.T) {
	c := gen.ALU(8, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	s := openStore(t)

	restore := faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointStoreWrite,
		Kind:  faultinject.KindError,
	}))
	cold, err := IdentifyThrough(s, c, opt)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Writes != 0 {
		t.Fatalf("%d writes landed through a failing write path", s.Stats().Writes)
	}

	// Nothing persisted: the next run is a full miss, and still correct.
	again, err := IdentifyThrough(s, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Outcome != "miss" {
		t.Fatalf("outcome %q after lost writes, want miss", again.Outcome)
	}
	assertSameCounters(t, cold, again)
}

// The merged result of the cone-granular store pipeline must stay
// bit-identical to the whole-circuit pipeline on Total/Selected/RD (the
// cone-sum invariant the fleet already enforces; Segments is the
// documented cone-sharded work sum).
func TestStoreMatchesWholeCircuitRun(t *testing.T) {
	for _, h := range []core.Heuristic{core.HeuristicFUS, core.Heuristic1, core.HeuristicPinOrder} {
		c := gen.ALU(8, gen.XorNAND)
		res, err := IdentifyThrough(openStore(t), c, Options{Heuristic: h, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Identify(c, h, core.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total.Cmp(rep.TotalLogicalPaths) != 0 || res.Selected != rep.Selected ||
			res.RD.Cmp(rep.RD) != 0 {
			t.Fatalf("%v: store pipeline diverges from whole-circuit run: %v/%d/%v vs %v/%d/%v",
				h, res.Total, res.Selected, res.RD, rep.TotalLogicalPaths, rep.Selected, rep.RD)
		}
		if res.Total.Cmp(big.NewInt(0)) <= 0 {
			t.Fatalf("%v: empty run", h)
		}
	}
}
