package store

import (
	"context"
	"testing"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/synth"
)

// suiteCircuits materializes every ISCAS analogue plus the synthesized
// MCNC covers — the corpus of the hash property tests.
func suiteCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var cs []*circuit.Circuit
	for _, n := range gen.ISCAS85Suite() {
		cs = append(cs, n.C)
	}
	for _, nc := range gen.MCNCSuite() {
		c, err := synth.Synthesize(nc.Cover, synth.Options{})
		if err != nil {
			t.Fatalf("synthesize %s: %v", nc.Paper, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// The canonical hashes must not move under gate relabeling: renamed
// gates and a reshuffled (still topological) declaration order are the
// same circuit.
func TestCanonicalHashRelabelInvariant(t *testing.T) {
	for _, c := range suiteCircuits(t) {
		f, sh := FuncHash(c), ShapeHash(c)
		for seed := int64(1); seed <= 3; seed++ {
			r, _, err := synth.Relabel(c, seed)
			if err != nil {
				t.Fatalf("%s: relabel: %v", c.Name(), err)
			}
			if got := FuncHash(r); got != f {
				t.Errorf("%s seed %d: FuncHash moved under relabel", c.Name(), seed)
			}
			if got := ShapeHash(r); got != sh {
				t.Errorf("%s seed %d: ShapeHash moved under relabel", c.Name(), seed)
			}
		}
	}
}

// FuncHash must collapse buffer chains (the content address of a
// buffer-padded revision is its ancestor's); ShapeHash must not (its
// Segments counters are not the ancestor's).
func TestCanonicalHashBufferInvariant(t *testing.T) {
	for _, c := range suiteCircuits(t) {
		f, sh := FuncHash(c), ShapeHash(c)
		for seed := int64(1); seed <= 3; seed++ {
			b, _, err := synth.InsertBuffers(c, seed, 0.4)
			if err != nil {
				t.Fatalf("%s: insert buffers: %v", c.Name(), err)
			}
			if got := FuncHash(b); got != f {
				t.Errorf("%s seed %d: FuncHash moved under buffer insertion", c.Name(), seed)
			}
			if b.NumGates() > c.NumGates() && ShapeHash(b) == sh {
				t.Errorf("%s seed %d: ShapeHash blind to %d inserted buffers",
					c.Name(), seed, b.NumGates()-c.NumGates())
			}
		}
	}
}

// No two functionally-distinct suite circuits may share a content
// address.
func TestCanonicalHashCollisionFree(t *testing.T) {
	seen := make(map[string]string)
	for _, c := range suiteCircuits(t) {
		f := FuncHash(c)
		if prev, ok := seen[f]; ok {
			t.Fatalf("FuncHash collision: %s and %s", prev, c.Name())
		}
		seen[f] = c.Name()
	}
}

// Cone keys must transport under relabeling: the projected global sort,
// rendered in canonical gate order, is the same key on both sides —
// this is what makes a relabeled resubmission's cones warm hits.
func TestConeKeyTransportsUnderRelabel(t *testing.T) {
	for _, h := range []core.Heuristic{core.Heuristic1, core.HeuristicPinOrder} {
		c := gen.ALU(8, gen.XorNAND)
		r, _, err := synth.Relabel(c, 11)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.HeuristicSort(context.Background(), c, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := core.HeuristicSort(context.Background(), r, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := func(c *circuit.Circuit, s *circuit.InputSort) []string {
			var out []string
			for _, po := range c.Outputs() {
				cone, mapping, err := c.Cone(po)
				if err != nil {
					t.Fatal(err)
				}
				var proj *circuit.InputSort
				if s != nil {
					p := s.Cone(mapping)
					proj = &p
				}
				out = append(out, ConeKey(cone, proj, core.SigmaPi))
			}
			return out
		}
		kc, kr := keys(c, sc), keys(r, sr)
		for i := range kc {
			// Relabel preserves output declaration order, so cone i
			// corresponds to cone i.
			if kc[i] != kr[i] {
				t.Fatalf("%v: cone %d key moved under relabel", h, i)
			}
		}
	}
}

// Two hash calls per circuit version through the registry must share
// one computation and one value.
func TestHashForMemoized(t *testing.T) {
	c := gen.PaperExample()
	f1, s1, err := HashFor(c)
	if err != nil {
		t.Fatal(err)
	}
	f2, s2, err := HashFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 || s1 != s2 {
		t.Fatal("HashFor not stable across calls")
	}
	if f1 != FuncHash(c) || s1 != ShapeHash(c) {
		t.Fatal("HashFor disagrees with direct hashing")
	}
}
