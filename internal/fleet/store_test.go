package fleet

import (
	"context"
	"path/filepath"
	"testing"

	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/store"
)

// A second fleet run of the same circuit must retire every cone from
// the store before dispatching: zero dispatches, all cones as store
// hits, merged counters bit-identical to the populating run and to the
// single-process pipeline.
func TestFleetStoreHitsSkipDispatch(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "rdstore"))
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, 2)
	cfg := testConfig(pool, 0)
	cfg.Store = st
	c := gen.RippleAdder(6, gen.XorNAND)

	cold, err := Run(context.Background(), cfg, c, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.StoreHits != 0 {
		t.Fatalf("cold run claims %d store hits", cold.Stats.StoreHits)
	}
	if cold.Stats.Dispatches == 0 {
		t.Fatal("cold run dispatched nothing")
	}

	warm, err := Run(context.Background(), cfg, c, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}
	if int(warm.Stats.StoreHits) != warm.Stats.Cones {
		t.Fatalf("warm run: %d/%d cones from the store", warm.Stats.StoreHits, warm.Stats.Cones)
	}
	if warm.Stats.Dispatches != 0 {
		t.Fatalf("warm run dispatched %d times", warm.Stats.Dispatches)
	}
	if warm.Total.Cmp(cold.Total) != 0 || warm.Selected != cold.Selected ||
		warm.RD.Cmp(cold.RD) != 0 || warm.Segments != cold.Segments || warm.Pruned != cold.Pruned {
		t.Fatalf("warm counters diverge from cold:\ncold %s/%d/%s/%d\nwarm %s/%d/%s/%d",
			cold.Total, cold.Selected, cold.RD, cold.Segments,
			warm.Total, warm.Selected, warm.RD, warm.Segments)
	}
	ref, err := core.Identify(c, core.Heuristic1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, warm, ref)

	hits := 0
	for _, ev := range warm.Events {
		if ev.Kind == EvStoreHit {
			hits++
		}
	}
	if hits != warm.Stats.Cones {
		t.Fatalf("%d store.hit events for %d cones", hits, warm.Stats.Cones)
	}
}

// The store is shared infrastructure between the serving layer and the
// fleet: a circuit identified through store.IdentifyThrough warms the
// same cone entries a coordinator consults, because both derive the
// same ConeKey from the same global sort projection.
func TestFleetReusesIdentifyThroughEntries(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "rdstore"))
	if err != nil {
		t.Fatal(err)
	}
	c := gen.RippleAdder(6, gen.XorNAND)
	direct, err := store.IdentifyThrough(st, c, store.Options{Heuristic: core.Heuristic1})
	if err != nil {
		t.Fatal(err)
	}

	pool := newPool(t, 2)
	cfg := testConfig(pool, 0)
	cfg.Store = st
	res, err := Run(context.Background(), cfg, c, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Dispatches != 0 || int(res.Stats.StoreHits) != res.Stats.Cones {
		t.Fatalf("cross-layer reuse failed: %d dispatches, %d/%d hits",
			res.Stats.Dispatches, res.Stats.StoreHits, res.Stats.Cones)
	}
	if res.Total.Cmp(direct.Total) != 0 || res.Selected != direct.Selected ||
		res.RD.Cmp(direct.RD) != 0 || res.Segments != direct.Segments {
		t.Fatal("fleet merge diverges from the IdentifyThrough result it reused")
	}
}

// An ECO revision through the fleet re-dispatches only what the store
// cannot answer, and the merged counters still match a cold fleet run.
func TestFleetECODeltaDispatchesOnlyFreshCones(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "rdstore"))
	if err != nil {
		t.Fatal(err)
	}
	base := gen.RippleAdder(6, gen.XorNAND)
	revised, _, err := store.MutateKCones(base, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, 2)

	// Cold reference without a store.
	cold, err := Run(context.Background(), testConfig(pool, 0), revised, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(pool, 0)
	cfg.Store = st
	if _, err := Run(context.Background(), cfg, base, core.Heuristic1); err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), cfg, revised, core.Heuristic1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total.Cmp(cold.Total) != 0 || warm.Selected != cold.Selected ||
		warm.RD.Cmp(cold.RD) != 0 || warm.Segments != cold.Segments {
		t.Fatal("ECO fleet run diverges from cold fleet run")
	}
	// The adder's cones share logic, so the edit can move other cones'
	// projected sorts — but at least one cone far from the edit must
	// still be served from the store, and fewer cones must be walked.
	if warm.Stats.StoreHits == 0 {
		t.Fatal("ECO run reused nothing")
	}
	if w, c := conesWalked(warm), conesWalked(cold); w == 0 || w >= c || w+int(warm.Stats.StoreHits) != warm.Stats.Cones {
		t.Fatalf("ECO run walked %d cones (%d from the store), cold run %d — store saved nothing",
			w, warm.Stats.StoreHits, c)
	}
}

// conesWalked counts the cones a worker answered in a run.
func conesWalked(res *Result) int {
	n := 0
	for _, ev := range res.Events {
		if ev.Kind == EvComplete {
			n++
		}
	}
	return n
}
