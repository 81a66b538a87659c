package core

import (
	"math/big"
	"testing"

	"rdfault/internal/circuit"
	"rdfault/internal/gen"
	"rdfault/internal/paths"
)

// coneSumLimit keeps the property test on the suite circuits whose
// whole-circuit enumeration is cheap enough for tier-1.
const coneSumLimit = 200_000

// TestConeCountersSumToWholeCircuit pins the sharding invariant the
// fleet coordinator relies on, independent of any fleet machinery: when
// every output cone is enumerated under the *global* input sort
// projected onto it (InputSort.Cone), the per-cone Selected/RD/Total
// counters sum bit-identically to the whole-circuit run. Segments does
// NOT sum to the whole-circuit count — shared DFS prefixes are walked
// once per cone — but the sharded sum must be deterministic (worker
// count cannot change it), which is the weaker invariant the chaos
// suite holds merged runs to.
func TestConeCountersSumToWholeCircuit(t *testing.T) {
	suite := append([]gen.Named{{Paper: "paper-example", C: gen.PaperExample()}}, gen.ISCAS85Suite()...)
	tested := 0
	for _, nc := range suite {
		if paths.NewCounts(nc.C).Logical().Cmp(big.NewInt(coneSumLimit)) > 0 {
			continue
		}
		tested++
		t.Run(nc.Paper, func(t *testing.T) {
			c := nc.C
			sort, _, _, err := Heuristic2SortWorkers(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := Enumerate(c, SigmaPi, Options{Sort: &sort})
			if err != nil {
				t.Fatal(err)
			}
			if whole.Status != StatusComplete {
				t.Fatalf("whole-circuit run ended %v", whole.Status)
			}

			sumTotal := new(big.Int)
			sumRD := new(big.Int)
			var sumSelected, sumSegments int64
			var sumSegmentsPar int64
			for _, po := range c.Outputs() {
				cone, mapping, err := c.Cone(po)
				if err != nil {
					t.Fatal(err)
				}
				proj := sort.Cone(mapping)
				res, err := Enumerate(cone, SigmaPi, Options{Sort: &proj})
				if err != nil {
					t.Fatalf("cone %s: %v", cone.Name(), err)
				}
				if res.Status != StatusComplete {
					t.Fatalf("cone %s ended %v", cone.Name(), res.Status)
				}
				sumTotal.Add(sumTotal, res.Total)
				sumRD.Add(sumRD, res.RD)
				sumSelected += res.Selected
				sumSegments += res.Segments

				// The same cone under parallel enumeration: counters are
				// schedule-independent, so the sharded Segments sum is too.
				par, err := Enumerate(cone, SigmaPi, Options{Sort: &proj, Workers: 4})
				if err != nil {
					t.Fatalf("cone %s (4 workers): %v", cone.Name(), err)
				}
				sumSegmentsPar += par.Segments
			}

			if sumTotal.Cmp(whole.Total) != 0 {
				t.Errorf("cone Total sum %s, whole circuit %s", sumTotal, whole.Total)
			}
			if sumSelected != whole.Selected {
				t.Errorf("cone Selected sum %d, whole circuit %d", sumSelected, whole.Selected)
			}
			if sumRD.Cmp(whole.RD) != 0 {
				t.Errorf("cone RD sum %s, whole circuit %s", sumRD, whole.RD)
			}
			if len(c.Outputs()) > 1 && sumSegments < whole.Segments {
				t.Errorf("sharded Segments sum %d below whole-circuit %d", sumSegments, whole.Segments)
			}
			if sumSegmentsPar != sumSegments {
				t.Errorf("sharded Segments sum depends on worker count: serial %d, parallel %d", sumSegments, sumSegmentsPar)
			}
		})
	}
	if tested < 2 {
		t.Fatalf("only %d suite circuits under the %d-path limit; property barely exercised", tested, coneSumLimit)
	}
}

// TestConeLeadCountsSumToWholeCircuit pins cone-bounded implication
// (logic.Engine.Narrow) to an unbounded reference, lead by lead. A
// whole-circuit walk narrows implication to the outputs each path can
// still reach; a cone walk has one output, so its bound never excludes
// a gate. For FS and T (the two Algorithm 3 passes) every per-cone
// LeadCounts vector, mapped back through the cone's gate mapping and
// summed, must equal the whole-circuit vector exactly. The random
// circuit has more than 64 outputs, so its Reach buckets are shared.
func TestConeLeadCountsSumToWholeCircuit(t *testing.T) {
	suite := append([]gen.Named{{Paper: "paper-example", C: gen.PaperExample()}}, gen.ISCAS85Suite()...)
	wide := gen.RandomCircuit("wide", gen.RandomOptions{Inputs: 24, Gates: 120, Outputs: 70}, 5)
	if len(wide.Outputs()) <= 64 {
		t.Fatalf("wide circuit has %d outputs, want more than 64", len(wide.Outputs()))
	}
	suite = append(suite, gen.Named{Paper: "random-70-out", C: wide})
	tested := 0
	for _, nc := range suite {
		if paths.NewCounts(nc.C).Logical().Cmp(big.NewInt(coneSumLimit)) > 0 {
			continue
		}
		tested++
		c := nc.C
		for _, cr := range []Criterion{FS, NonRobust} {
			t.Run(nc.Paper+"/"+cr.String(), func(t *testing.T) {
				whole, err := Enumerate(c, cr, Options{CollectLeadCounts: true})
				if err != nil {
					t.Fatal(err)
				}
				sum := make([]int64, c.NumLeads())
				for _, po := range c.Outputs() {
					cone, mapping, err := c.Cone(po)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Enumerate(cone, cr, Options{CollectLeadCounts: true})
					if err != nil {
						t.Fatalf("cone %s: %v", cone.Name(), err)
					}
					for g := circuit.GateID(0); int(g) < cone.NumGates(); g++ {
						for pin := range cone.Fanin(g) {
							sum[c.LeadIndex(mapping[g], pin)] += res.LeadCounts[cone.LeadIndex(g, pin)]
						}
					}
				}
				for i := range sum {
					if sum[i] != whole.LeadCounts[i] {
						t.Fatalf("lead %d: cone tallies sum to %d, whole-circuit walk counts %d", i, sum[i], whole.LeadCounts[i])
					}
				}
			})
		}
	}
	if tested < 3 {
		t.Fatalf("only %d circuits under the %d-path limit; property barely exercised", tested, coneSumLimit)
	}
}

// TestConeFSCountersSum covers the sortless FS baseline: the FUS
// criterion makes per-output decisions too, so its counters shard the
// same way.
func TestConeFSCountersSum(t *testing.T) {
	c := gen.ALU(8, gen.XorNAND)
	whole, err := Enumerate(c, FS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cones, err := c.Cones()
	if err != nil {
		t.Fatal(err)
	}
	sumTotal := new(big.Int)
	sumRD := new(big.Int)
	var sumSelected int64
	for _, cone := range cones {
		res, err := Enumerate(cone, FS, Options{})
		if err != nil {
			t.Fatalf("cone %s: %v", cone.Name(), err)
		}
		sumTotal.Add(sumTotal, res.Total)
		sumRD.Add(sumRD, res.RD)
		sumSelected += res.Selected
	}
	if sumTotal.Cmp(whole.Total) != 0 || sumSelected != whole.Selected || sumRD.Cmp(whole.RD) != 0 {
		t.Errorf("FS cone sums (total=%s selected=%d rd=%s) differ from whole circuit (total=%s selected=%d rd=%s)",
			sumTotal, sumSelected, sumRD, whole.Total, whole.Selected, whole.RD)
	}
}

// The projection identity itself: projecting the global sort onto a
// cone and re-deriving it from the wire encoding agree gate for gate.
func TestConeSortProjectionRoundTrips(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	sort, _, _, err := Heuristic2SortWorkers(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, po := range c.Outputs() {
		cone, mapping, err := c.Cone(po)
		if err != nil {
			t.Fatal(err)
		}
		proj := sort.Cone(mapping)
		back, err := circuit.SortFromNames(cone, proj.ByName(cone))
		if err != nil {
			t.Fatalf("cone %s: %v", cone.Name(), err)
		}
		a, errA := Enumerate(cone, SigmaPi, Options{Sort: &proj})
		b, errB := Enumerate(cone, SigmaPi, Options{Sort: &back})
		if errA != nil || errB != nil {
			t.Fatalf("cone %s: %v / %v", cone.Name(), errA, errB)
		}
		if a.Selected != b.Selected || a.Total.Cmp(b.Total) != 0 {
			t.Fatalf("cone %s: projected sort and wire round-trip disagree (selected %d vs %d)",
				cone.Name(), a.Selected, b.Selected)
		}
	}
}
