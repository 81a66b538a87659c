package serve

import (
	"strconv"
	"testing"
	"time"

	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/oracle"
	"rdfault/internal/paths"
)

// TestTierLadderSoundVsOracle is the ladder-soundness test: on circuits
// small enough for the exhaustive oracle, every rung's served RD set
// must be a subset of the exact RD set, and each answer's numbers must
// match the work its tier label claims.
//
// All rungs of a job share one input sort σ, so the subset chain is
//
//	RD_count (∅) ⊆ RD_cert = RD_fast = comp(LP^sup(σ)) ⊆ RD_exact = comp(LP(σ))
//
// The fast⊆exact link is verified directly against the oracle: every
// path in exact LP must appear in the fast rung's selected set (LP ⊆
// LP^sup ⟺ RD_fast ⊆ RD_exact).
func TestTierLadderSoundVsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle classification is exhaustive")
	}
	circuits := []*circuit.Circuit{
		gen.PaperExample(),
		gen.RandomCircuit("r1", gen.RandomOptions{Inputs: 6, Gates: 20, Outputs: 3, MaxArity: 4}, 1),
		gen.RandomCircuit("r2", gen.RandomOptions{Inputs: 7, Gates: 24, Outputs: 3, MaxArity: 4}, 42),
	}
	for _, c := range circuits {
		t.Run(c.Name(), func(t *testing.T) {
			sp, err := core.HeuristicSort(c, core.Heuristic2, 1)
			if err != nil {
				t.Fatal(err)
			}
			sort := *sp
			orc, err := oracle.Classify(c, sort)
			if err != nil {
				t.Fatal(err)
			}

			// The fast rung's selected set, collected serially with the
			// same sort the service uses.
			selected := make(map[string]bool)
			_, err = core.Enumerate(c, core.SigmaPi, core.Options{
				Sort:   &sort,
				OnPath: func(lp paths.Logical) { selected[lp.Key()] = true },
			})
			if err != nil {
				t.Fatal(err)
			}
			// Soundness of the approximation itself: LP ⊆ LP^sup(σ).
			for _, key := range orc.Keys {
				if !orc.IsRD(key) && !selected[key] {
					t.Fatalf("path %s is in exact LP but outside the fast selected set: RD_fast ⊄ RD_exact", key)
				}
			}

			cert, err := core.CollectRDSegments(c, sort, core.Options{})
			if err != nil {
				t.Fatal(err)
			}

			s := newTestServer(t, Config{Workers: 2})
			bench := benchOf(t, c)
			for _, tier := range []string{"exact", "fast", "certificate", "count"} {
				j, err := s.Submit(Request{Bench: bench, Name: c.Name(), Heuristic: "heu2", Tier: tier})
				if err != nil {
					t.Fatal(err)
				}
				ans, err := waitJob(t, j, 60*time.Second)
				if err != nil {
					t.Fatalf("tier %s: %v", tier, err)
				}
				if ans.Tier != tier || ans.TierReason != "requested" {
					t.Fatalf("requested %s, served %s (%s)", tier, ans.Tier, ans.TierReason)
				}
				if ans.TotalPaths != strconv.Itoa(orc.Total()) {
					t.Fatalf("tier %s: total=%s, oracle says %d", tier, ans.TotalPaths, orc.Total())
				}
				rd, perr := strconv.Atoi(ans.RD)
				if perr != nil {
					t.Fatalf("tier %s: unparsable RD %q", tier, ans.RD)
				}
				// Subset bound: no rung may claim more RD paths than the
				// exact set holds.
				if rd > orc.RD() {
					t.Fatalf("tier %s claims %d RD paths, exact set has only %d", tier, rd, orc.RD())
				}
				// Label honesty: the numbers must be the served tier's own.
				switch tier {
				case "exact":
					if rd != orc.RD() || !ans.Exact {
						t.Fatalf("exact tier: RD=%d exact=%v, oracle says %d", rd, ans.Exact, orc.RD())
					}
				case "fast":
					if rd != orc.Total()-len(selected) || ans.Exact {
						t.Fatalf("fast tier: RD=%d, complement of selected set is %d", rd, orc.Total()-len(selected))
					}
					if ans.Selected != int64(len(selected)) {
						t.Fatalf("fast tier: selected=%d, set has %d", ans.Selected, len(selected))
					}
				case "certificate":
					if rd != orc.Total()-len(selected) {
						t.Fatalf("certificate tier: RD=%d, fast RD set has %d", rd, orc.Total()-len(selected))
					}
					if ans.Segments != len(cert.Segments) {
						t.Fatalf("certificate tier: %d segments, direct run found %d", ans.Segments, len(cert.Segments))
					}
					if cert.CoveredTotal.String() != ans.RD {
						t.Fatalf("certificate covers %v paths but claims RD=%s", cert.CoveredTotal, ans.RD)
					}
				case "count":
					if rd != 0 || ans.Selected != 0 {
						t.Fatalf("count tier: RD=%d selected=%d, want an empty RD set", rd, ans.Selected)
					}
				}
			}
		})
	}
}
