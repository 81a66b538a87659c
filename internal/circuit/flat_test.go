package circuit

import (
	"fmt"
	"testing"
)

// buildFlatFixture constructs a small multi-fanout circuit exercising
// every gate type the flat layout must carry.
func buildFlatFixture(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("flat-fixture")
	a := b.Input("a")
	x := b.Input("x")
	y := b.Input("y")
	o1 := b.Gate(Or, "o1", x, y)
	n1 := b.Gate(Nand, "n1", a, o1, x)
	inv := b.Gate(Not, "inv", n1)
	buf := b.Gate(Buf, "buf", o1)
	b.Output("po1", inv)
	b.Output("po2", buf)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFlatMatchesCircuit: the CSR view must agree with the pointer view
// attribute by attribute — types, levels, ordered fanins, and the full
// fanout multiset with pins.
func TestFlatMatchesCircuit(t *testing.T) {
	c := buildFlatFixture(t)
	f := c.Flat()
	if f.N != c.NumGates() {
		t.Fatalf("N = %d, want %d", f.N, c.NumGates())
	}
	if len(f.FaninOff) != f.N+1 || len(f.FanoutOff) != f.N+1 {
		t.Fatalf("offset arrays not N+1 sized")
	}
	if int(f.FaninOff[f.N]) != c.NumLeads() || int(f.FanoutOff[f.N]) != c.NumLeads() {
		t.Fatalf("CSR terminators %d/%d, want %d leads",
			f.FaninOff[f.N], f.FanoutOff[f.N], c.NumLeads())
	}
	for g := GateID(0); int(g) < c.NumGates(); g++ {
		if f.Types[g] != c.Type(g) {
			t.Errorf("gate %d: type %v != %v", g, f.Types[g], c.Type(g))
		}
		if int(f.Level[g]) != c.Level(g) {
			t.Errorf("gate %d: level %d != %d", g, f.Level[g], c.Level(g))
		}
		// Fanin must match in pin order, and FaninOff must agree with the
		// dense lead indexing.
		fi := f.FaninOf(g)
		want := c.Fanin(g)
		if len(fi) != len(want) {
			t.Fatalf("gate %d: fanin arity %d != %d", g, len(fi), len(want))
		}
		for pin := range want {
			if fi[pin] != want[pin] {
				t.Errorf("gate %d pin %d: fanin %d != %d", g, pin, fi[pin], want[pin])
			}
			if int(f.FaninOff[g])+pin != c.LeadIndex(g, pin) {
				t.Errorf("gate %d pin %d: CSR offset disagrees with LeadIndex", g, pin)
			}
		}
		// Fanout (destinations + pins) must match the Edge list exactly.
		fo := f.FanoutOf(g)
		edges := c.Fanout(g)
		if len(fo) != len(edges) {
			t.Fatalf("gate %d: fanout arity %d != %d", g, len(fo), len(edges))
		}
		for i, e := range edges {
			if fo[i] != e.To {
				t.Errorf("gate %d fanout %d: dest %d != %d", g, i, fo[i], e.To)
			}
			if int(f.FanoutPin[int(f.FanoutOff[g])+i]) != e.Pin {
				t.Errorf("gate %d fanout %d: pin mismatch", g, i)
			}
		}
	}
}

// TestFlatSharedAndStable: repeated Flat calls return the one cached
// layout — it is derived data keyed to the circuit's version, built once.
func TestFlatSharedAndStable(t *testing.T) {
	c := buildFlatFixture(t)
	f1 := c.Flat()
	f2 := c.Flat()
	if f1 != f2 {
		t.Fatal("Flat rebuilt on second call")
	}
	// A rewritten circuit (new Build, new version) gets its own layout.
	c2 := buildFlatFixture(t)
	if c2.Flat() == f1 {
		t.Fatal("distinct circuit versions share a Flat")
	}
}

// chainFixture builds a chain of n AND gates, each also driving an
// output of its own, so the cone of output j holds gates 0..j of the
// chain.
func chainFixture(t *testing.T, n int) *Circuit {
	t.Helper()
	b := NewBuilder("chain-fixture")
	in := []GateID{b.Input("a"), b.Input("b"), b.Input("c")}
	prev := in[0]
	for i := 0; i < n; i++ {
		prev = b.Gate(And, fmt.Sprintf("g%d", i), prev, in[1+i%2])
		b.Output(fmt.Sprintf("po%d", i), prev)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFlatReach: Reach[g] holds exactly the bucket bits of the outputs
// whose cones contain g. Output i of n falls in bucket i*64/n, so with
// up to 64 outputs the mask is exact and beyond that buckets are shared.
func TestFlatReach(t *testing.T) {
	for _, c := range []*Circuit{buildFlatFixture(t), chainFixture(t, 64), chainFixture(t, 70)} {
		f := c.Flat()
		outs := c.Outputs()
		want := make([]uint64, c.NumGates())
		for i, po := range outs {
			_, mapping, err := c.Cone(po)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range mapping {
				want[g] |= 1 << (i * 64 / len(outs))
			}
		}
		for g := range want {
			if f.Reach[g] != want[g] {
				t.Errorf("%s gate %d: Reach %#x, want %#x", c.Name(), g, f.Reach[g], want[g])
			}
		}
	}
}
