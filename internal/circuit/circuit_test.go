package circuit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// example builds the reconstructed running example of the paper (Figs 1-5):
// y = AND(OR(a,b), OR(b,c)). It has 3 PIs, 4 physical and 8 logical paths.
func example(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("example")
	a := b.Input("a")
	bb := b.Input("b")
	cc := b.Input("c")
	o1 := b.Gate(Or, "o1", a, bb)
	o2 := b.Gate(Or, "o2", bb, cc)
	y := b.Gate(And, "y", o1, o2)
	b.Output("y$po", y)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestGateTypeString(t *testing.T) {
	cases := map[GateType]string{
		Input: "INPUT", Output: "OUTPUT", Buf: "BUF", Not: "NOT",
		And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("GateType(%d).String() = %q, want %q", ty, got, want)
		}
	}
	if got := GateType(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown type String() = %q", got)
	}
}

func TestControllingValues(t *testing.T) {
	for _, tc := range []struct {
		ty GateType
		v  bool
		ok bool
	}{
		{And, false, true}, {Nand, false, true},
		{Or, true, true}, {Nor, true, true},
		{Not, false, false}, {Buf, false, false},
		{Input, false, false}, {Output, false, false},
	} {
		v, ok := tc.ty.Controlling()
		if ok != tc.ok || (ok && v != tc.v) {
			t.Errorf("%s.Controlling() = %v,%v want %v,%v", tc.ty, v, ok, tc.v, tc.ok)
		}
		if ok {
			nv, nok := tc.ty.NonControlling()
			if !nok || nv == v {
				t.Errorf("%s.NonControlling() = %v,%v inconsistent", tc.ty, nv, nok)
			}
		}
	}
}

func TestInverting(t *testing.T) {
	inverting := map[GateType]bool{
		Not: true, Nand: true, Nor: true,
		And: false, Or: false, Buf: false, Output: false, Input: false,
	}
	for ty, want := range inverting {
		if got := ty.Inverting(); got != want {
			t.Errorf("%s.Inverting() = %v, want %v", ty, got, want)
		}
	}
}

func TestGateTypeEval(t *testing.T) {
	tt := []struct {
		ty   GateType
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Buf, []bool{false}, false},
		{Not, []bool{true}, false},
		{Not, []bool{false}, true},
		{Output, []bool{true}, true},
		{And, []bool{true, true, true}, true},
		{And, []bool{true, false, true}, false},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{false, true}, true},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
	}
	for _, tc := range tt {
		if got := tc.ty.Eval(tc.in); got != tc.want {
			t.Errorf("%s.Eval(%v) = %v, want %v", tc.ty, tc.in, got, tc.want)
		}
	}
}

func TestExampleStructure(t *testing.T) {
	c := example(t)
	s := c.Stats()
	if s.Inputs != 3 || s.Outputs != 1 {
		t.Fatalf("stats = %v, want 3 inputs 1 output", s)
	}
	if s.Gates != 7 {
		t.Errorf("gates = %d, want 7", s.Gates)
	}
	if s.Leads != 7 { // o1:2 o2:2 y:2 po:1
		t.Errorf("leads = %d, want 7", s.Leads)
	}
	if got := c.Depth(); got != 3 {
		t.Errorf("depth = %d, want 3", got)
	}
	if _, ok := c.GateByName("o1"); !ok {
		t.Error("GateByName(o1) not found")
	}
	if _, ok := c.GateByName("nosuch"); ok {
		t.Error("GateByName(nosuch) found")
	}
}

func TestEvalBool(t *testing.T) {
	c := example(t)
	// y = (a|b) & (b|c)
	for v := 0; v < 8; v++ {
		a, bb, cc := v&4 != 0, v&2 != 0, v&1 != 0
		want := (a || bb) && (bb || cc)
		val := c.EvalBool([]bool{a, bb, cc})
		out := c.OutputsOf(val)
		if len(out) != 1 || out[0] != want {
			t.Errorf("EvalBool(%v,%v,%v) = %v, want %v", a, bb, cc, out, want)
		}
	}
}

func TestEvalBoolArityPanic(t *testing.T) {
	c := example(t)
	defer func() {
		if recover() == nil {
			t.Error("EvalBool with wrong arity did not panic")
		}
	}()
	c.EvalBool([]bool{true})
}

func TestLeadIndexing(t *testing.T) {
	c := example(t)
	seen := make(map[int]bool)
	for g := GateID(0); int(g) < c.NumGates(); g++ {
		for pin := range c.Fanin(g) {
			i := c.LeadIndex(g, pin)
			if seen[i] {
				t.Fatalf("duplicate lead index %d", i)
			}
			seen[i] = true
			if i < 0 || i >= c.NumLeads() {
				t.Fatalf("lead index %d out of range [0,%d)", i, c.NumLeads())
			}
			back := c.LeadAt(i)
			if back.To != g || back.Pin != pin {
				t.Fatalf("LeadAt(%d) = %v, want {%d %d}", i, back, g, pin)
			}
			if src := c.Source(back); src != c.Fanin(g)[pin] {
				t.Fatalf("Source(%v) = %d, want %d", back, src, c.Fanin(g)[pin])
			}
		}
	}
	if len(seen) != c.NumLeads() {
		t.Fatalf("covered %d leads, want %d", len(seen), c.NumLeads())
	}
}

func TestFanoutEdges(t *testing.T) {
	c := example(t)
	b, _ := c.GateByName("b")
	fo := c.Fanout(b)
	if len(fo) != 2 {
		t.Fatalf("fanout(b) = %v, want 2 edges", fo)
	}
	for _, e := range fo {
		if c.Fanin(e.To)[e.Pin] != b {
			t.Errorf("edge %v does not point back to b", e)
		}
	}
	po := c.Outputs()[0]
	if len(c.Fanout(po)) != 0 {
		t.Error("PO has fanout")
	}
}

func TestTopoOrderAndLevels(t *testing.T) {
	c := example(t)
	pos := make(map[GateID]int)
	for i, g := range c.TopoOrder() {
		pos[g] = i
	}
	for g := GateID(0); int(g) < c.NumGates(); g++ {
		for _, f := range c.Fanin(g) {
			if pos[f] >= pos[g] {
				t.Errorf("fanin %d not before gate %d in topo order", f, g)
			}
			if c.Level(f) >= c.Level(g) {
				t.Errorf("level(%d)=%d not below level(%d)=%d", f, c.Level(f), g, c.Level(g))
			}
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate name", func(t *testing.T) {
		b := NewBuilder("t")
		b.Input("a")
		b.Input("a")
		if _, err := b.Build(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("not arity", func(t *testing.T) {
		b := NewBuilder("t")
		a := b.Input("a")
		x := b.Input("x")
		b.Gate(Not, "n", a, x)
		if _, err := b.Build(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("and arity", func(t *testing.T) {
		b := NewBuilder("t")
		a := b.Input("a")
		b.Gate(And, "g", a)
		if _, err := b.Build(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("no outputs", func(t *testing.T) {
		b := NewBuilder("t")
		b.Input("a")
		if _, err := b.Build(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("no inputs", func(t *testing.T) {
		b := NewBuilder("t")
		if _, err := b.Build(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("dangling gate", func(t *testing.T) {
		b := NewBuilder("t")
		a := b.Input("a")
		x := b.Input("x")
		b.Gate(And, "dangle", a, x)
		b.Output("y", a)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for dangling gate")
		}
	})
	t.Run("po as fanin", func(t *testing.T) {
		b := NewBuilder("t")
		a := b.Input("a")
		po := b.Output("y", a)
		b.Gate(Not, "n", po)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for PO used as fanin")
		}
	})
	t.Run("unknown fanin id", func(t *testing.T) {
		b := NewBuilder("t")
		a := b.Input("a")
		b.Gate(Not, "n", a+100)
		if _, err := b.Build(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("first error wins", func(t *testing.T) {
		b := NewBuilder("t")
		b.Input("a")
		b.Input("a")
		b.Gate(And, "g")
		err := b.Err()
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("Err() = %v, want duplicate-name error", err)
		}
	})
}

func TestXorExpansion(t *testing.T) {
	b := NewBuilder("xor")
	x := b.Input("x")
	y := b.Input("y")
	g := b.Xor("g", x, y)
	b.Output("g$po", g)
	c := b.MustBuild()
	if n := c.Stats().ByType[Nand]; n != 4 {
		t.Fatalf("Xor expanded to %d NANDs, want 4", n)
	}
	for v := 0; v < 4; v++ {
		a, bb := v&2 != 0, v&1 != 0
		out := c.OutputsOf(c.EvalBool([]bool{a, bb}))
		if out[0] != (a != bb) {
			t.Errorf("xor(%v,%v) = %v", a, bb, out[0])
		}
	}
}

func TestXnor(t *testing.T) {
	b := NewBuilder("xnor")
	x := b.Input("x")
	y := b.Input("y")
	g := b.Xnor("g", x, y)
	b.Output("g$po", g)
	c := b.MustBuild()
	for v := 0; v < 4; v++ {
		a, bb := v&2 != 0, v&1 != 0
		out := c.OutputsOf(c.EvalBool([]bool{a, bb}))
		if out[0] != (a == bb) {
			t.Errorf("xnor(%v,%v) = %v", a, bb, out[0])
		}
	}
}

func TestXorTree(t *testing.T) {
	for n := 1; n <= 9; n++ {
		b := NewBuilder("xt")
		in := make([]GateID, n)
		for i := range in {
			in[i] = b.Input(string(rune('a' + i)))
		}
		root := b.XorTree("t", in...)
		b.Output("y", root)
		c := b.MustBuild()
		for v := 0; v < 1<<n; v++ {
			vec := make([]bool, n)
			parity := false
			for i := range vec {
				vec[i] = v&(1<<i) != 0
				parity = parity != vec[i]
			}
			out := c.OutputsOf(c.EvalBool(vec))
			if out[0] != parity {
				t.Fatalf("n=%d v=%b: parity = %v, want %v", n, v, out[0], parity)
			}
		}
	}
}

func TestCone(t *testing.T) {
	b := NewBuilder("multi")
	a := b.Input("a")
	x := b.Input("x")
	z := b.Input("z")
	g1 := b.Gate(And, "g1", a, x)
	g2 := b.Gate(Or, "g2", x, z)
	b.Output("o1", g1)
	b.Output("o2", g2)
	c := b.MustBuild()

	cones, err := c.Cones()
	if err != nil {
		t.Fatalf("Cones: %v", err)
	}
	if len(cones) != 2 {
		t.Fatalf("got %d cones", len(cones))
	}
	c0 := cones[0]
	if got := c0.Stats().Inputs; got != 2 {
		t.Errorf("cone o1 inputs = %d, want 2 (a,x)", got)
	}
	if _, ok := c0.GateByName("z"); ok {
		t.Error("cone o1 contains z")
	}
	// Cone preserves function.
	for v := 0; v < 4; v++ {
		av, xv := v&2 != 0, v&1 != 0
		full := c.OutputsOf(c.EvalBool([]bool{av, xv, false}))
		sub := c0.OutputsOf(c0.EvalBool([]bool{av, xv}))
		if full[0] != sub[0] {
			t.Errorf("cone mismatch at a=%v x=%v", av, xv)
		}
	}
	if _, _, err := c.Cone(a); err == nil {
		t.Error("Cone on non-PO should fail")
	}
}

func TestParseBench(t *testing.T) {
	src := `
# tiny test circuit
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
g1 = NAND(a, b)   # inline comment
g2 = NOR(b, c)
y = AND(g1, g2)
`
	c, err := ParseBench("tiny", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if got := c.Stats().Inputs; got != 3 {
		t.Fatalf("inputs = %d", got)
	}
	for v := 0; v < 8; v++ {
		a, bb, cc := v&4 != 0, v&2 != 0, v&1 != 0
		want := !(a && bb) && !(bb || cc)
		out := c.OutputsOf(c.EvalBool([]bool{a, bb, cc}))
		if out[0] != want {
			t.Errorf("v=%d: got %v want %v", v, out[0], want)
		}
	}
}

// The scanner buffer starts small and grows on demand: a gate line
// longer than 64 KiB still parses.
func TestParseBenchLongLine(t *testing.T) {
	var src, args strings.Builder
	const n = 12000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "INPUT(in%d)\n", i)
		if i > 0 {
			args.WriteString(", ")
		}
		fmt.Fprintf(&args, "in%d", i)
	}
	if args.Len() <= 64<<10 {
		t.Fatalf("gate line is only %d bytes", args.Len())
	}
	fmt.Fprintf(&src, "OUTPUT(y)\ny = AND(%s)\n", args.String())
	c, err := ParseBench("wide", strings.NewReader(src.String()))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if got := len(c.Fanin(c.Fanin(c.Outputs()[0])[0])); got != n {
		t.Fatalf("wide gate has %d inputs, want %d", got, n)
	}
}

func TestParseBenchOutOfOrder(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NOT(g)
g = AND(a, b)
`
	c, err := ParseBench("ooo", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	out := c.OutputsOf(c.EvalBool([]bool{true, true}))
	if out[0] != false {
		t.Error("NOT(AND(1,1)) != 0")
	}
}

func TestParseBenchXor(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = XOR(a, b, c)
`
	c, err := ParseBench("x3", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	for v := 0; v < 8; v++ {
		a, bb, cc := v&4 != 0, v&2 != 0, v&1 != 0
		want := a != bb != cc
		out := c.OutputsOf(c.EvalBool([]bool{a, bb, cc}))
		if out[0] != want {
			t.Errorf("xor3 v=%d: got %v want %v", v, out[0], want)
		}
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"dff":       "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n",
		"cycle":     "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n",
		"undefined": "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n",
		"redefined": "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n",
		"garbage":   "INPUT(a)\nOUTPUT(y)\nthis is not bench\n",
		"badfn":     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MAJ(a, b)\n",
		"notarity":  "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n",
		"andarity":  "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n",
		"badparen":  "INPUT a\nOUTPUT(y)\ny = AND(a, a)\n",
	}
	for name, src := range cases {
		if _, err := ParseBench(name, strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := example(t)
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	c2, err := ParseBench("rt", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if c2.NumGates() != c.NumGates() {
		t.Fatalf("round trip gates %d != %d\n%s", c2.NumGates(), c.NumGates(), buf.String())
	}
	// Functional equivalence over all inputs.
	for v := 0; v < 8; v++ {
		vec := []bool{v&4 != 0, v&2 != 0, v&1 != 0}
		o1 := c.OutputsOf(c.EvalBool(vec))
		o2 := c2.OutputsOf(c2.EvalBool(vec))
		if o1[0] != o2[0] {
			t.Fatalf("round trip differs at %v", vec)
		}
	}
	// Second round trip is textually stable.
	var buf2 bytes.Buffer
	if err := WriteBench(&buf2, c2); err != nil {
		t.Fatalf("WriteBench 2: %v", err)
	}
	c3, err := ParseBench("rt", bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatalf("reparse 2: %v", err)
	}
	if c3.NumGates() != c2.NumGates() {
		t.Fatal("second round trip changed structure")
	}
}

func TestSortedGateNames(t *testing.T) {
	c := example(t)
	names := c.SortedGateNames()
	if len(names) != c.NumGates() {
		t.Fatalf("got %d names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid circuit")
		}
	}()
	NewBuilder("bad").MustBuild()
}

func TestWriteDot(t *testing.T) {
	c := example(t)
	g, _ := c.GateByName("y")
	var buf bytes.Buffer
	err := WriteDot(&buf, c, map[Lead]bool{{To: g, Pin: 0}: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "rankdir=LR", "doublecircle", "color=red", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// One edge per lead.
	if got := strings.Count(out, "->"); got != c.NumLeads() {
		t.Errorf("DOT has %d edges, want %d", got, c.NumLeads())
	}
}

// Property (testing/quick): LeadAt inverts LeadIndex on arbitrary valid
// indices.
func TestQuickLeadRoundTrip(t *testing.T) {
	c := example(t)
	f := func(i uint16) bool {
		idx := int(i) % c.NumLeads()
		l := c.LeadAt(idx)
		return c.LeadIndex(l.To, l.Pin) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
