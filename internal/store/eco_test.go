package store

import (
	"testing"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/synth"
)

// The heart of the equivalence suite: for k-of-n-cone edits, the
// incremental warm run (ancestor populated, only changed cones
// re-enumerated) must produce counters bit-identical to a cold full run
// of the revised circuit — at one worker and at four.
func TestECOEquivalence(t *testing.T) {
	base := gen.ALU(8, gen.XorNAND)
	for _, k := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			revised, edits, err := MutateKCones(base, k, int64(10*k+workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(edits) == 0 {
				t.Fatal("no edits applied")
			}
			opt := Options{Heuristic: core.Heuristic1, Workers: workers}
			cold := reference(t, revised, opt)

			s := openStore(t)
			if _, err := IdentifyThrough(s, base, opt); err != nil {
				t.Fatal(err)
			}
			warm, err := IdentifyThrough(s, revised, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameCounters(t, cold, warm)
			// The merged counters must also match the whole-circuit
			// pipeline on the invariant triple.
			rep, err := core.Identify(revised, core.Heuristic1, core.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Total.Cmp(rep.TotalLogicalPaths) != 0 || warm.Selected != rep.Selected ||
				warm.RD.Cmp(rep.RD) != 0 {
				t.Fatalf("k=%d workers=%d: warm run diverges from whole-circuit pipeline", k, workers)
			}
		}
	}
}

// TestECOChainedRevisions edits each revision again, 20 times over, two
// cones per step. Buffers inserted by earlier steps keep their names, so
// later steps must pick free ones; every revision's store answer must
// equal a cold run on a fresh store.
func TestECOChainedRevisions(t *testing.T) {
	cur := gen.ALU(4, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 1}
	s := openStore(t)
	if _, err := IdentifyThrough(s, cur, opt); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		next, _, err := MutateKCones(cur, 2, seed)
		if err != nil {
			t.Fatalf("revision %d: %v", seed, err)
		}
		warm, err := IdentifyThrough(s, next, opt)
		if err != nil {
			t.Fatalf("revision %d: %v", seed, err)
		}
		assertSameCounters(t, reference(t, next, opt), warm)
		cur = next
	}
}

// threeBlocks builds a circuit of three structurally independent
// 2-output blocks (6 cones, no shared logic between blocks), so an edit
// in one block cannot move any other cone's projected sort — the
// setting where the exact reuse count is assertable.
func threeBlocks(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("threeblocks")
	for blk := 0; blk < 3; blk++ {
		suffix := string(rune('a' + blk))
		x0 := b.Input("x0_" + suffix)
		x1 := b.Input("x1_" + suffix)
		x2 := b.Input("x2_" + suffix)
		x3 := b.Input("x3_" + suffix)
		n0 := b.Gate(circuit.Nand, "n0_"+suffix, x0, x1)
		n1 := b.Gate(circuit.Nand, "n1_"+suffix, x2, x3)
		a0 := b.Gate(circuit.And, "a0_"+suffix, n0, x2)
		o0 := b.Gate(circuit.Or, "o0_"+suffix, n1, x0)
		m := b.Gate(circuit.Nor, "m_"+suffix, a0, o0)
		b.Output("y0_"+suffix, b.Gate(circuit.Nand, "t0_"+suffix, m, n0))
		b.Output("y1_"+suffix, b.Gate(circuit.Nand, "t1_"+suffix, m, n1))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// On disjoint cones, a k-cone edit's delta run must actually skip the
// untouched cones: the acceptance criterion "re-enumerates only the
// changed cones", verified by the reuse and work counters.
func TestECODisjointConesDelta(t *testing.T) {
	base := threeBlocks(t)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}

	// Edit exactly one block (both of its cones share the edited gate in
	// the worst case, so at most 2 of 6 cones go fresh).
	revised, edits, err := MutateKCones(base, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 1 {
		t.Fatalf("wanted 1 edit, got %d", len(edits))
	}
	cold := reference(t, revised, opt)

	s := openStore(t)
	if _, err := IdentifyThrough(s, base, opt); err != nil {
		t.Fatal(err)
	}
	warm, err := IdentifyThrough(s, revised, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounters(t, cold, warm)
	if warm.Outcome != "delta" {
		t.Fatalf("outcome %q, want delta", warm.Outcome)
	}
	if warm.ReusedCones < 4 {
		t.Fatalf("reused %d/6 cones, want >= 4 (untouched blocks must be served from the store)", warm.ReusedCones)
	}
	if warm.FreshCones > 2 {
		t.Fatalf("re-enumerated %d cones for a single-block edit", warm.FreshCones)
	}
	if warm.EnumeratedSegments >= cold.Segments {
		t.Fatalf("delta run did %d segments, cold run %d — no work was saved",
			warm.EnumeratedSegments, cold.Segments)
	}
	if warm.EnumeratedSegments == 0 {
		t.Fatal("a functional edit cannot be a pure hit")
	}
}

// A relabeled resubmission is the same circuit: pure hit, zero
// enumeration, counters verbatim.
func TestECORelabeledResubmissionHit(t *testing.T) {
	base := gen.ALU(8, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	s := openStore(t)
	cold, err := IdentifyThrough(s, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	relabeled, _, err := synth.Relabel(base, 99)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := IdentifyThrough(s, relabeled, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Outcome != "hit" || warm.EnumeratedSegments != 0 || warm.FreshCones != 0 {
		t.Fatalf("relabeled resubmission: outcome=%q fresh=%d segments=%d, want pure hit",
			warm.Outcome, warm.FreshCones, warm.EnumeratedSegments)
	}
	assertSameCounters(t, cold, warm)
}

// Buffer insertion preserves function but not shape: the run entry
// locates the ancestor (delta, not miss), the path-count triple is
// unchanged, and the result matches a cold run of the buffered circuit
// exactly — Segments included.
func TestECOBufferInsertionDelta(t *testing.T) {
	base := gen.ALU(8, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	s := openStore(t)
	baseRes, err := IdentifyThrough(s, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	buffed, inserted, err := synth.InsertBuffers(base, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inserted) == 0 {
		t.Skip("no buffers inserted at this seed")
	}
	cold := reference(t, buffed, opt)
	warm, err := IdentifyThrough(s, buffed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Outcome != "delta" {
		t.Fatalf("outcome %q, want delta (FuncHash locates the ancestor)", warm.Outcome)
	}
	assertSameCounters(t, cold, warm)
	// Buffers never add, remove or desensitize a logical path.
	if warm.Total.Cmp(baseRes.Total) != 0 || warm.Selected != baseRes.Selected ||
		warm.RD.Cmp(baseRes.RD) != 0 {
		t.Fatal("buffer insertion moved the path-count triple")
	}
}

// The fleet/serve acceptance gate (make eco-smoke): across the suite,
// a repeat submission must be a pure store hit with counters equal to
// the cold run and zero enumeration work.
func TestECOSmoke(t *testing.T) {
	circuits := []*circuit.Circuit{
		gen.PaperExample(),
	}
	for _, n := range gen.ISCAS85Suite() {
		if n.Paper == "c432" || n.Paper == "c880" {
			circuits = append(circuits, n.C)
		}
	}
	for _, h := range []core.Heuristic{core.HeuristicFUS, core.Heuristic1} {
		for _, c := range circuits {
			opt := Options{Heuristic: h, Workers: 2}
			s := openStore(t)
			cold, err := IdentifyThrough(s, c, opt)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name(), h, err)
			}
			warm, err := IdentifyThrough(s, c, opt)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name(), h, err)
			}
			if warm.Outcome != "hit" || warm.EnumeratedSegments != 0 {
				t.Fatalf("%s/%v: repeat submission outcome=%q segments=%d, want pure hit",
					c.Name(), h, warm.Outcome, warm.EnumeratedSegments)
			}
			assertSameCounters(t, cold, warm)
		}
	}
}

// FuzzECODelta drives the equivalence suite with fuzzed edit seeds and
// counts: warm incremental counters must equal a cold full run for any
// mutation the generator can produce.
func FuzzECODelta(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(-7), uint8(4))
	base := gen.RippleAdder(4, gen.XorNAND)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		revised, _, err := MutateKCones(base, int(k%8), seed)
		if err != nil {
			t.Skip()
		}
		cold := reference(t, revised, opt)
		s := openStore(t)
		if _, err := IdentifyThrough(s, base, opt); err != nil {
			t.Fatal(err)
		}
		warm, err := IdentifyThrough(s, revised, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCounters(t, cold, warm)
	})
}

// keyCircuits is the corpus of the in-place cone-key test: the paper
// example, the ISCAS analogues, and the eco benchmark's random designs,
// whose 67 and 69 outputs share Reach buckets.
func keyCircuits() []*circuit.Circuit {
	cs := []*circuit.Circuit{gen.PaperExample()}
	for _, n := range gen.ISCAS85Suite() {
		cs = append(cs, n.C)
	}
	return append(cs, rnd55(3), rnd55(4))
}

func rnd55(seed int64) *circuit.Circuit {
	return gen.RandomCircuit("rnd55", gen.RandomOptions{Inputs: 40, Gates: 160, Outputs: 55}, seed)
}

// Cone keys computed in place on the submitted circuit must equal
// ConeKey on the extracted cone under the projected sort, for every
// output, criterion and sort flavour, on the corpus and on 20 chained
// ECO revisions: a key mismatch would orphan every stored cone record.
func TestECOConeKeysInPlace(t *testing.T) {
	check := func(c *circuit.Circuit, h core.Heuristic) {
		t.Helper()
		cr := core.SigmaPi
		if h == core.HeuristicFUS {
			cr = core.FS
		}
		sort, err := core.HeuristicSort(c, h, 1)
		if err != nil {
			t.Fatal(err)
		}
		keys := ConeKeys(c, sort, cr)
		for i, po := range c.Outputs() {
			cone, mapping, err := c.Cone(po)
			if err != nil {
				t.Fatal(err)
			}
			var proj *circuit.InputSort
			if sort != nil {
				p := sort.Cone(mapping)
				proj = &p
			}
			if want := ConeKey(cone, proj, cr); keys[i] != want {
				t.Fatalf("%s/%v: in-place key of output %d differs from the extracted cone's", c.Name(), h, i)
			}
			if ConeName(c, po) != cone.Name() {
				t.Fatalf("cone name %q, extracted cone is %q", ConeName(c, po), cone.Name())
			}
		}
	}
	for _, c := range keyCircuits() {
		for _, h := range []core.Heuristic{core.HeuristicFUS, core.Heuristic1, core.HeuristicPinOrder} {
			check(c, h)
		}
	}
	cur := rnd55(3)
	for seed := int64(1); seed <= 20; seed++ {
		next, _, err := MutateKCones(cur, 2, seed)
		if err != nil {
			t.Fatalf("revision %d: %v", seed, err)
		}
		check(next, core.Heuristic1)
		cur = next
	}
}

// Isomorphic cones under identical projected sorts share a key. The
// first one is walked and the later twins count as reused without a
// walk; rnd55a has two such pairs.
func TestECOTwinConesCountAsReused(t *testing.T) {
	c := rnd55(3)
	opt := Options{Heuristic: core.Heuristic1, Workers: 2}
	res, err := IdentifyThrough(openStore(t), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounters(t, reference(t, c, opt), res)
	if res.Outcome != "delta" || res.FreshCones != 65 || res.ReusedCones != 2 {
		t.Fatalf("cold run %s %d fresh/%d reused, want delta 65/2", res.Outcome, res.FreshCones, res.ReusedCones)
	}
	firstFresh := map[string]bool{}
	for _, pc := range res.PerCone {
		if !pc.Reused {
			firstFresh[pc.Key] = true
		} else if !firstFresh[pc.Key] {
			t.Fatalf("cone %s reused before its twin was walked", pc.Name)
		}
	}
}

// Stored cone records are addressed by ConeKey, so its digest input is a
// format: these keys were written by earlier versions of the store and
// must still be found.
func TestECOConeKeyFormatPinned(t *testing.T) {
	c := gen.ALU(4, gen.XorNAND)
	po := c.Outputs()[len(c.Outputs())-1]
	cone, mapping, err := c.Cone(po)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    core.Heuristic
		cr   core.Criterion
		want string
	}{
		{core.HeuristicFUS, core.FS, "a10bae133c6c8278e32b946407bd7898256b80ee4cdba3fe88f0477f1b6ef764"},
		{core.Heuristic1, core.SigmaPi, "83eab344e6685d83ad976dd16ebb6ba0fe87ef55da2e6cca4ec63de7ac21f6f0"},
	} {
		sort, err := core.HeuristicSort(c, tc.h, 1)
		if err != nil {
			t.Fatal(err)
		}
		var proj *circuit.InputSort
		if sort != nil {
			p := sort.Cone(mapping)
			proj = &p
		}
		if got := ConeKey(cone, proj, tc.cr); got != tc.want {
			t.Fatalf("%v: ConeKey of %s is %s, stored records use %s", tc.h, cone.Name(), got, tc.want)
		}
		if got := ConeKeys(c, sort, tc.cr)[len(c.Outputs())-1]; got != tc.want {
			t.Fatalf("%v: in-place key of %s is %s, stored records use %s", tc.h, cone.Name(), got, tc.want)
		}
	}
}
