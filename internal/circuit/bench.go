package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads a combinational netlist in the ISCAS-85/89 ".bench"
// format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(y)
//	g = NAND(a, b)
//	y = NOT(g)
//
// Supported functions are AND, OR, NAND, NOR, NOT, BUF/BUFF, XOR and XNOR.
// XOR and XNOR are expanded into the 4-NAND structure (the expansion that
// turns c499 into c1355), because the paper's theory is defined over simple
// gates only. Sequential elements (DFF) are rejected: the theory covers
// combinational circuits. A signal marked OUTPUT gets an explicit Output
// gate named "<signal>$po" so that physical paths have explicit PO
// endpoints; WriteBench strips the marker again, making the two functions
// round-trip stable.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type def struct {
		fn   string
		args []string
		line int
	}
	var (
		inputs    []string
		outputs   []string
		defs      = make(map[string]def)
		defOrder  []string
		inputLine = make(map[string]int)
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20) // grows only when a line needs it
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT(") || strings.HasPrefix(up, "INPUT ("):
			sig, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s:%d: %v", name, lineNo, err)
			}
			if first, dup := inputLine[sig]; dup {
				return nil, fmt.Errorf("bench %s:%d: input %q already declared at line %d", name, lineNo, sig, first)
			}
			if d, dup := defs[sig]; dup {
				return nil, fmt.Errorf("bench %s:%d: input %q already defined as a gate at line %d", name, lineNo, sig, d.line)
			}
			inputLine[sig] = lineNo
			inputs = append(inputs, sig)
		case strings.HasPrefix(up, "OUTPUT(") || strings.HasPrefix(up, "OUTPUT ("):
			sig, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s:%d: %v", name, lineNo, err)
			}
			outputs = append(outputs, sig)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench %s:%d: cannot parse %q", name, lineNo, line)
			}
			sig := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			op := strings.IndexByte(rhs, '(')
			cl := strings.LastIndexByte(rhs, ')')
			if op < 0 || cl < op {
				return nil, fmt.Errorf("bench %s:%d: cannot parse rhs %q", name, lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:op]))
			var args []string
			for _, a := range strings.Split(rhs[op+1:cl], ",") {
				a = strings.TrimSpace(a)
				if a != "" {
					args = append(args, a)
				}
			}
			if d, dup := defs[sig]; dup {
				return nil, fmt.Errorf("bench %s:%d: signal %q already defined at line %d", name, lineNo, sig, d.line)
			}
			if first, dup := inputLine[sig]; dup {
				return nil, fmt.Errorf("bench %s:%d: signal %q already declared INPUT at line %d", name, lineNo, sig, first)
			}
			defs[sig] = def{fn: fn, args: args, line: lineNo}
			defOrder = append(defOrder, sig)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench %s: %v", name, err)
	}

	b := NewBuilder(name)
	id := make(map[string]GateID, len(defs)+len(inputs))
	for _, sig := range inputs {
		id[sig] = b.Input(sig)
	}
	isOutput := make(map[string]bool, len(outputs))
	for _, sig := range outputs {
		isOutput[sig] = true
	}

	// Recursive elaboration with an explicit stack to tolerate definitions
	// in any order (the .bench format does not require topological order).
	var elaborate func(sig string, depth int) (GateID, error)
	elaborate = func(sig string, depth int) (GateID, error) {
		if g, ok := id[sig]; ok {
			if g == None {
				return None, fmt.Errorf("bench %s: combinational cycle through signal %q", name, sig)
			}
			return g, nil
		}
		d, ok := defs[sig]
		if !ok {
			return None, fmt.Errorf("bench %s: signal %q used but never defined", name, sig)
		}
		if depth > len(defs)+len(inputs)+1 {
			return None, fmt.Errorf("bench %s: definition depth exceeded at %q", name, sig)
		}
		id[sig] = None // cycle marker
		args := make([]GateID, len(d.args))
		for i, a := range d.args {
			g, err := elaborate(a, depth+1)
			if err != nil {
				return None, err
			}
			args[i] = g
		}
		gname := sig
		var g GateID
		switch d.fn {
		case "NOT", "INV":
			if len(args) != 1 {
				return None, fmt.Errorf("bench %s:%d: %s needs 1 arg", name, d.line, d.fn)
			}
			g = b.Gate(Not, gname, args[0])
		case "BUF", "BUFF":
			if len(args) != 1 {
				return None, fmt.Errorf("bench %s:%d: %s needs 1 arg", name, d.line, d.fn)
			}
			g = b.Gate(Buf, gname, args[0])
		case "AND", "NAND", "OR", "NOR":
			if len(args) < 2 {
				return None, fmt.Errorf("bench %s:%d: %s needs >=2 args", name, d.line, d.fn)
			}
			t := map[string]GateType{"AND": And, "NAND": Nand, "OR": Or, "NOR": Nor}[d.fn]
			g = b.Gate(t, gname, args...)
		case "XOR", "XNOR":
			if len(args) < 2 {
				return None, fmt.Errorf("bench %s:%d: %s needs >=2 args", name, d.line, d.fn)
			}
			g = args[0]
			for i := 1; i < len(args); i++ {
				nm := gname
				if i < len(args)-1 {
					nm = fmt.Sprintf("%s_c%d", gname, i)
				}
				g = b.Xor(nm, g, args[i])
			}
			if d.fn == "XNOR" {
				g = b.Gate(Not, gname+"_inv", g)
			}
		case "DFF", "DFFSR", "LATCH":
			return None, fmt.Errorf("bench %s:%d: sequential element %s unsupported (combinational circuits only)", name, d.line, d.fn)
		default:
			return None, fmt.Errorf("bench %s:%d: unknown function %q", name, d.line, d.fn)
		}
		id[sig] = g
		return g, nil
	}

	for _, sig := range defOrder {
		if _, err := elaborate(sig, 0); err != nil {
			return nil, err
		}
	}
	poSeen := make(map[string]int)
	for _, sig := range outputs {
		g, err := elaborate(sig, 0)
		if err != nil {
			return nil, err
		}
		poName := sig + "$po"
		if n := poSeen[sig]; n > 0 {
			poName = fmt.Sprintf("%s$po%d", sig, n)
		}
		poSeen[sig]++
		b.Output(poName, g)
	}
	return b.Build()
}

func parenArg(line string) (string, error) {
	op := strings.IndexByte(line, '(')
	cl := strings.LastIndexByte(line, ')')
	if op < 0 || cl < op {
		return "", fmt.Errorf("cannot parse %q", line)
	}
	sig := strings.TrimSpace(line[op+1 : cl])
	if sig == "" {
		return "", fmt.Errorf("empty signal in %q", line)
	}
	return sig, nil
}

// WriteBench writes c in .bench format. XOR expansions from ParseBench are
// written as their NAND structure (round-tripping preserves the elaborated
// netlist, not the original XOR shorthand). Output marker gates are
// written as OUTPUT declarations of their driver signal, with any "$po"
// suffix stripped, so ParseBench(WriteBench(c)) reproduces c's structure
// and names.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n# %s\n", c.Name(), c.Stats())
	for _, g := range c.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gate(g).Name)
	}
	for _, g := range c.Outputs() {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gate(c.Gate(g).Fanin[0]).Name)
	}
	for _, g := range c.TopoOrder() {
		gate := c.Gate(g)
		switch gate.Type {
		case Input, Output:
			continue
		default:
			names := make([]string, len(gate.Fanin))
			for i, f := range gate.Fanin {
				names[i] = c.Gate(f).Name
			}
			fmt.Fprintf(bw, "%s = %s(%s)\n", gate.Name, gate.Type, strings.Join(names, ", "))
		}
	}
	return bw.Flush()
}

// SortedGateNames returns all gate names in lexical order; useful for
// deterministic diagnostics in tests.
func (c *Circuit) SortedGateNames() []string {
	names := make([]string, 0, len(c.gates))
	for i := range c.gates {
		names = append(names, c.gates[i].Name)
	}
	sort.Strings(names)
	return names
}
