package logic

// Differential harness: the cache-flat Engine and the retained pointer
// RefEngine must be observationally identical — same conflict verdicts,
// same per-gate values, same trail lengths — for every circuit and every
// assign/backtrack/snapshot script. This is the same cross-check pattern
// the PR 4 oracle uses against the fast identifier, applied one layer
// down: the flat rewrite is a pure data-layout change, so any divergence
// is a bug by definition.

import (
	"math/rand"
	"testing"

	"rdfault/internal/circuit"
	"rdfault/internal/gen"
)

// checkAgree fails the test unless both engines expose identical state.
func checkAgree(t *testing.T, ctx string, c *circuit.Circuit, fast *Engine, ref *RefEngine) {
	t.Helper()
	if fast.Mark() != ref.Mark() {
		t.Fatalf("%s: trail length %d (flat) != %d (ref)", ctx, fast.Mark(), ref.Mark())
	}
	for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
		if fast.Value(g) != ref.Value(g) {
			t.Fatalf("%s: gate %d value %v (flat) != %v (ref)", ctx, g, fast.Value(g), ref.Value(g))
		}
	}
}

// scriptStep drives one random operation on both engines and checks
// agreement. marks is the shared stack of comparable Mark positions.
func scriptStep(t *testing.T, rng *rand.Rand, c *circuit.Circuit,
	fast *Engine, ref *RefEngine, marks *[]int) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 6: // assign a random gate a random concrete value
		g := circuit.GateID(rng.Intn(c.NumGates()))
		v := FromBool(rng.Intn(2) == 0)
		m := fast.Mark()
		okF := fast.AssignValue(g, v)
		okR := ref.AssignValue(g, v)
		if okF != okR {
			t.Fatalf("assign g=%d v=%v: verdict %v (flat) != %v (ref)", g, v, okF, okR)
		}
		if !okF {
			// Contract: a conflicted engine must be backtracked.
			fast.BacktrackTo(m)
			ref.BacktrackTo(m)
		}
	case op < 7: // assign X (no-op)
		g := circuit.GateID(rng.Intn(c.NumGates()))
		if fast.AssignValue(g, X) != ref.AssignValue(g, X) {
			t.Fatalf("AssignValue(X) verdicts diverge")
		}
	case op < 8: // push a mark
		*marks = append(*marks, fast.Mark())
	case op < 9: // backtrack to a random earlier mark
		if n := len(*marks); n > 0 {
			i := rng.Intn(n)
			m := (*marks)[i]
			*marks = (*marks)[:i]
			fast.BacktrackTo(m)
			ref.BacktrackTo(m)
		} else {
			fast.BacktrackTo(0)
			ref.BacktrackTo(0)
		}
	default: // snapshot one engine, restore into the other (both ways)
		if rng.Intn(2) == 0 {
			ref.Restore(fast.Snapshot())
		} else {
			fast.Restore(ref.Snapshot())
		}
		*marks = (*marks)[:0]
	}
	checkAgree(t, "after step", c, fast, ref)
}

// TestDifferentialFlatVsRef: random circuits, random scripts, exact
// agreement at every step.
func TestDifferentialFlatVsRef(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		c := gen.RandomCircuit("diff", gen.RandomOptions{
			Inputs:  3 + rng.Intn(6),
			Gates:   8 + rng.Intn(60),
			Outputs: 1 + rng.Intn(4),
		}, seed)
		fast := NewEngine(c)
		ref := NewRefEngine(c)
		var marks []int
		for step := 0; step < 400; step++ {
			scriptStep(t, rng, c, fast, ref, &marks)
		}
		// Full unwind must agree too (and leave both engines reusable).
		fast.BacktrackTo(0)
		ref.BacktrackTo(0)
		checkAgree(t, "after full unwind", c, fast, ref)
	}
}

// TestDifferentialStats: the assignment/implication counters track the
// same work on both layouts (they feed engine telemetry).
func TestDifferentialStats(t *testing.T) {
	c := gen.RandomCircuit("stats", gen.RandomOptions{Inputs: 6, Gates: 40, Outputs: 3}, 99)
	fast := NewEngine(c)
	ref := NewRefEngine(c)
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 200; i++ {
		g := circuit.GateID(rng.Intn(c.NumGates()))
		v := rng.Intn(2) == 0
		m := fast.Mark()
		okF, okR := fast.Assign(g, v), ref.Assign(g, v)
		if okF != okR {
			t.Fatalf("verdicts diverge at step %d", i)
		}
		if !okF {
			fast.BacktrackTo(m)
			ref.BacktrackTo(m)
		}
	}
	fa, fi := fast.Stats()
	ra, ri := ref.Stats()
	if fa != ra || fi != ri {
		t.Fatalf("stats diverge: flat (%d, %d) vs ref (%d, %d)", fa, fi, ra, ri)
	}
}

// TestSnapshotTransport: snapshots are interchangeable between the two
// implementations — a prefix packaged by one is walked identically by
// the other (the work-stealing scheduler and the checkpoint codec depend
// on exactly this property of the Snapshot type).
func TestSnapshotTransport(t *testing.T) {
	c := gen.RandomCircuit("snap", gen.RandomOptions{Inputs: 5, Gates: 30, Outputs: 2}, 17)
	rng := rand.New(rand.NewSource(555))
	ref := NewRefEngine(c)
	for i := 0; i < 4; i++ {
		ref.Assign(circuit.GateID(rng.Intn(c.NumGates())), rng.Intn(2) == 0)
	}
	snap := ref.Snapshot()

	// Round-trip through Export/MakeSnapshot (the checkpoint wire format).
	gates, vals := snap.Export()
	fast := NewEngine(c)
	fast.Restore(MakeSnapshot(gates, vals))
	refCheck := NewRefEngine(c)
	refCheck.Restore(snap)
	checkAgree(t, "restored from transported snapshot", c, fast, refCheck)

	// Continue both with the same suffix: still identical.
	for i := 0; i < 50; i++ {
		g := circuit.GateID(rng.Intn(c.NumGates()))
		v := rng.Intn(2) == 0
		m := fast.Mark()
		okF, okR := fast.Assign(g, v), refCheck.Assign(g, v)
		if okF != okR {
			t.Fatalf("post-restore verdicts diverge at step %d", i)
		}
		if !okF {
			fast.BacktrackTo(m)
			refCheck.BacktrackTo(m)
		}
		checkAgree(t, "post-restore step", c, fast, refCheck)
	}
}

// FuzzEngineDiff is the native fuzz target: the fuzzer owns the circuit
// shape and the operation script, and any observable divergence between
// the flat and reference engines crashes the run. Bytes decode as
// (circuit seed/shape header, then one op per byte pair).
func FuzzEngineDiff(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x02, 0x83, 0x04, 0xff, 0x00})
	f.Add(int64(7), []byte{0x10, 0x81, 0x22, 0x93, 0x44, 0xa5, 0x66})
	f.Add(int64(42), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		c := gen.RandomCircuit("fuzz", gen.RandomOptions{
			Inputs:  2 + int(uint64(seed)%5),
			Gates:   5 + int(uint64(seed)>>3%40),
			Outputs: 1 + int(uint64(seed)>>9%3),
		}, seed)
		fast := NewEngine(c)
		ref := NewRefEngine(c)
		var marks []int
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int(script[i+1])
			g := circuit.GateID(arg % c.NumGates())
			switch op % 5 {
			case 0, 1: // assign 0/1
				m := fast.Mark()
				okF := fast.Assign(g, op%2 == 0)
				okR := ref.Assign(g, op%2 == 0)
				if okF != okR {
					t.Fatalf("verdict divergence at op %d", i)
				}
				if !okF {
					fast.BacktrackTo(m)
					ref.BacktrackTo(m)
				}
			case 2: // mark
				marks = append(marks, fast.Mark())
			case 3: // backtrack
				m := 0
				if len(marks) > 0 {
					k := arg % len(marks)
					m = marks[k]
					marks = marks[:k]
				}
				fast.BacktrackTo(m)
				ref.BacktrackTo(m)
			case 4: // snapshot transport
				if arg%2 == 0 {
					ref.Restore(fast.Snapshot())
				} else {
					fast.Restore(ref.Snapshot())
				}
				marks = marks[:0]
			}
			if fast.Mark() != ref.Mark() {
				t.Fatalf("trail divergence at op %d: %d vs %d", i, fast.Mark(), ref.Mark())
			}
			for gg := circuit.GateID(0); int(gg) < c.NumGates(); gg++ {
				if fast.Value(gg) != ref.Value(gg) {
					t.Fatalf("value divergence at op %d gate %d", i, gg)
				}
			}
		}
	})
}

// boundedWalk drives random PI-to-PO walks through both engines the way
// the path enumerator does: Narrow to the next gate, assert it and a
// random subset of its fanins (the side inputs), backtrack on conflict,
// and retreat to a random depth at an output. The bounded Engine must
// give the unbounded RefEngine's verdict at every assertion and agree
// with it on every gate whose Reach meets the live mask.
func boundedWalk(t *testing.T, c *circuit.Circuit, rng *rand.Rand, steps int) {
	t.Helper()
	reach := c.Flat().Reach
	fast := NewEngine(c)
	ref := NewRefEngine(c)
	agree := func(ctx string) {
		t.Helper()
		for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
			if reach[g]&fast.live != 0 && fast.Value(g) != ref.Value(g) {
				t.Fatalf("%s: live gate %d value %v (bounded) != %v (ref)", ctx, g, fast.Value(g), ref.Value(g))
			}
		}
	}
	assign := func(g circuit.GateID, v bool) bool {
		t.Helper()
		okF, okR := fast.Assign(g, v), ref.Assign(g, v)
		if okF != okR {
			t.Fatalf("assign g=%d v=%v: verdict %v (bounded) != %v (ref)", g, v, okF, okR)
		}
		return okF
	}
	// One stack level per path gate: the gate and both engines' marks
	// taken before it was asserted.
	type level struct {
		g            circuit.GateID
		fMark, rMark int
	}
	var path []level
	for step := 0; step < steps; step++ {
		if len(path) == 0 {
			fast.Reset()
			ref.Reset()
			pi := c.Inputs()[rng.Intn(len(c.Inputs()))]
			fast.Narrow(pi)
			if assign(pi, rng.Intn(2) == 0) {
				path = append(path, level{g: pi})
			}
			agree("root")
			continue
		}
		g := path[len(path)-1].g
		fo := c.Fanout(g)
		if len(fo) == 0 {
			// An output, or a PI without fanout: retreat to a random depth.
			k := rng.Intn(len(path))
			fast.BacktrackTo(path[k].fMark)
			ref.BacktrackTo(path[k].rMark)
			path = path[:k]
			agree("retreat")
			continue
		}
		next := fo[rng.Intn(len(fo))].To
		fast.Narrow(next)
		lv := level{g: next, fMark: fast.Mark(), rMark: ref.Mark()}
		ok := assign(next, rng.Intn(2) == 0)
		for _, side := range c.Fanin(next) {
			if !ok {
				break
			}
			if side != g && rng.Intn(2) == 0 {
				ok = assign(side, rng.Intn(2) == 0)
			}
		}
		if ok {
			path = append(path, lv)
		} else {
			fast.BacktrackTo(lv.fMark)
			ref.BacktrackTo(lv.rMark)
		}
		agree("extend")
	}
}

// TestDifferentialBoundedVsRef: on random circuits with 1 to 100
// outputs (past the 64 at which Reach buckets start to share bits), the
// narrowed engine agrees with the unbounded reference inside its bound.
func TestDifferentialBoundedVsRef(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 104729))
		outs := 1 + rng.Intn(100)
		c := gen.RandomCircuit("bounded", gen.RandomOptions{
			Inputs:  2 + rng.Intn(10),
			Gates:   outs + rng.Intn(120),
			Outputs: outs,
		}, seed)
		boundedWalk(t, c, rng, 600)
	}
}

// FuzzEngineBoundedDiff is the fuzz target for the bound: the fuzzer
// picks the circuit (1 to 100 outputs) and the walk's random choices.
func FuzzEngineBoundedDiff(f *testing.F) {
	f.Add(int64(1), uint8(3), int64(11))
	f.Add(int64(9), uint8(70), int64(5))
	f.Add(int64(42), uint8(99), int64(123))
	f.Fuzz(func(t *testing.T, seed int64, outs uint8, walkSeed int64) {
		n := 1 + int(outs)%100
		c := gen.RandomCircuit("fuzzbound", gen.RandomOptions{
			Inputs:  2 + int(uint64(seed)%9),
			Gates:   n + int(uint64(seed)>>4%80),
			Outputs: n,
		}, seed)
		boundedWalk(t, c, rand.New(rand.NewSource(walkSeed)), 300)
	})
}

// BenchmarkEngineVsRef pits the two layouts on the same workload (the
// input-sweep pattern of BenchmarkImplicationEngine); run with -bench to
// see the flat engine's edge directly.
func BenchmarkEngineVsRef(b *testing.B) {
	c := gen.RandomCircuit("bench", gen.RandomOptions{Inputs: 64, Gates: 2000, Outputs: 32}, 42)
	ins := c.Inputs()
	b.Run("flat", func(b *testing.B) {
		e := NewEngine(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mark := e.Mark()
			for j, g := range ins {
				if !e.Assign(g, (i+j)%3 == 0) {
					break
				}
			}
			e.BacktrackTo(mark)
		}
	})
	b.Run("ref", func(b *testing.B) {
		e := NewRefEngine(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mark := e.Mark()
			for j, g := range ins {
				if !e.Assign(g, (i+j)%3 == 0) {
					break
				}
			}
			e.BacktrackTo(mark)
		}
	})
}
