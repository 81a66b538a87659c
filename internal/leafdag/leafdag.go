// Package leafdag reimplements the RD-set identification approach of
// Lam, Saldanha, Brayton and Sangiovanni-Vincentelli (DAC 1993) — the
// comparator of the paper's Table III.
//
// The leaf-dag of an output cone is its fanout-free unfolding: every
// internal gate with fanout is replicated so that sharing only remains at
// the primary inputs. Each leaf occurrence corresponds to exactly one
// physical path, so the leaf-dag has as many leaves as the cone has paths
// — which is why this approach explodes on circuits with many paths
// (c499 ran for 69 hours in [1]; c6288 is hopeless), the very motivation
// for the paper's new algorithm.
//
// RD identification reduces to redundant multiple stuck-at faults on the
// leaves: a set of logical paths with rising transitions (final value 1)
// is robust dependent if the multiple stuck-at-0 fault on their leaves is
// redundant, and dually for falling transitions with stuck-at-1 ([1],
// Theorems 2.1/2.2). We reproduce the greedy heuristic: per polarity,
// consider leaves one at a time, check single-fault redundancy with a SAT
// query against the current (already substituted) unfolding, and commit
// redundant faults as constants. Committed faults stay jointly redundant
// because each acceptance preserves functional equivalence with the
// original cone.
package leafdag

import (
	"fmt"
	"math/big"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/paths"
	"rdfault/internal/satsolver"
)

// node is one vertex of the unfolded tree.
type node struct {
	orig     circuit.GateID
	typ      circuit.GateType
	children []int32 // node ids; empty for leaves
	parent   int32   // -1 for root
	childIdx int32   // position within parent's children
}

// Tree is the leaf-dag (internally a tree whose leaves reference shared
// PIs) of a single-output cone.
type Tree struct {
	c      *circuit.Circuit
	nodes  []node
	leaves []int32 // node ids of leaves, construction order
	root   int32
}

// ErrTooLarge is returned (wrapped) when the unfolding exceeds the node
// cap — the reproduction of "could not be completed in reasonable time".
var ErrTooLarge = fmt.Errorf("leafdag: unfolding exceeds node cap")

// TotalTreeNodes returns the summed unfolding size of every output cone
// without building anything: each gate-to-PO path suffix becomes exactly
// one tree node. The path counts come from the shared analysis manager,
// so an identification run that also needs them computes them once.
func TotalTreeNodes(c *circuit.Circuit) *big.Int {
	ct := analysis.For(c).Counts()
	total := new(big.Int)
	for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
		total.Add(total, ct.Down(g))
	}
	return total
}

// Build unfolds the cone of the single PO of c. cap bounds the number of
// tree nodes (0 means 1<<20).
func Build(c *circuit.Circuit, cap int) (*Tree, error) {
	if len(c.Outputs()) != 1 {
		return nil, fmt.Errorf("leafdag: circuit %s has %d outputs; unfold per cone", c.Name(), len(c.Outputs()))
	}
	if cap <= 0 {
		cap = 1 << 20
	}
	t := &Tree{c: c}
	var expand func(g circuit.GateID, parent, childIdx int32) (int32, error)
	expand = func(g circuit.GateID, parent, childIdx int32) (int32, error) {
		if len(t.nodes) >= cap {
			return 0, fmt.Errorf("%w (cap %d) on %s", ErrTooLarge, cap, c.Name())
		}
		id := int32(len(t.nodes))
		t.nodes = append(t.nodes, node{
			orig: g, typ: c.Type(g), parent: parent, childIdx: childIdx,
		})
		if c.Type(g) == circuit.Input {
			t.leaves = append(t.leaves, id)
			return id, nil
		}
		fanin := c.Fanin(g)
		children := make([]int32, len(fanin))
		for i, f := range fanin {
			cid, err := expand(f, id, int32(i))
			if err != nil {
				return 0, err
			}
			children[i] = cid
		}
		t.nodes[id].children = children
		return id, nil
	}
	root, err := expand(c.Outputs()[0], -1, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// NumNodes returns the size of the unfolding.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of leaves = number of physical paths.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// LeafPath reconstructs the physical path corresponding to leaf index i.
func (t *Tree) LeafPath(i int) paths.Path {
	var gates []circuit.GateID
	var pins []int
	id := t.leaves[i]
	for id != -1 {
		n := &t.nodes[id]
		gates = append(gates, n.orig)
		if n.parent != -1 {
			pins = append(pins, int(n.childIdx))
		}
		id = n.parent
	}
	return paths.Path{Gates: gates, Pins: pins}
}

// Eval computes the tree's root value for the given primary input vector
// (in cone Inputs() order), with the leaves listed in forced overridden by
// their mapped constants (a multiple stuck-at fault). Intended for
// validating identified fault sets in tests.
func (t *Tree) Eval(in []bool, forced map[int]bool) bool {
	idx := make(map[circuit.GateID]int, len(t.c.Inputs()))
	for i, pi := range t.c.Inputs() {
		idx[pi] = i
	}
	leafIdx := make(map[int32]int, len(t.leaves))
	for i, id := range t.leaves {
		leafIdx[id] = i
	}
	var eval func(id int32) bool
	eval = func(id int32) bool {
		n := &t.nodes[id]
		if len(n.children) == 0 {
			if v, ok := forced[leafIdx[id]]; ok {
				return v
			}
			return in[idx[n.orig]]
		}
		args := make([]bool, len(n.children))
		for i, ch := range n.children {
			args[i] = eval(ch)
		}
		return n.typ.Eval(args)
	}
	return eval(t.root)
}

// Options tunes IdentifyRD.
type Options struct {
	// NodeCap bounds the TOTAL unfolding size summed over all output
	// cones (0 = 1<<20). Exceeding it aborts with ErrTooLarge, mirroring
	// the paper's "not completed" entries.
	NodeCap int
	// OnRD receives every identified RD logical path (small circuits /
	// tests).
	OnRD func(paths.Logical)
	// AllowTestablePaths switches to the raw greedy of [1]'s heuristic:
	// any single fault redundant relative to earlier commits is accepted,
	// even if its logical path is non-robustly testable in the original
	// circuit. The committed multiple fault is still jointly redundant,
	// but the resulting set leaves the common framework of Section III
	// (it may intersect T(C), which every LP(σ)-complement avoids). By
	// default candidates are pre-filtered to paths outside T^sup, keeping
	// the result comparable with the stabilizing-assignment RD-sets that
	// Table III measures against.
	AllowTestablePaths bool
}

// Report summarizes an IdentifyRD run.
type Report struct {
	Circuit           string
	TotalLogicalPaths *big.Int
	RD                int64
	Queries           int64
	TreeNodes         int64
	Duration          time.Duration
}

// RDPercent returns 100*RD/Total.
func (r *Report) RDPercent() float64 { return core.RDPercent(big.NewInt(r.RD), r.TotalLogicalPaths) }

// IdentifyRD runs the unfolding-based identification on every output cone
// of c and aggregates the results.
func IdentifyRD(c *circuit.Circuit, opt Options) (*Report, error) {
	start := time.Now()
	// One counts build serves both the report total and the TotalTreeNodes
	// precheck below (previously two independent NewCounts constructions
	// per identification run).
	rep := &Report{
		Circuit:           c.Name(),
		TotalLogicalPaths: analysis.For(c).CopyLogical(),
	}
	cap := opt.NodeCap
	if cap <= 0 {
		cap = 1 << 20
	}
	// Cheap precheck: the total unfolding size across all cones equals
	// the number of gate-to-PO path suffixes, one tree node each.
	if total := TotalTreeNodes(c); total.Cmp(big.NewInt(int64(cap))) > 0 {
		return nil, fmt.Errorf("%w: unfolding needs %v nodes (cap %d) on %s",
			ErrTooLarge, total, cap, c.Name())
	}
	for _, po := range c.Outputs() {
		cone, mapping, err := c.Cone(po)
		if err != nil {
			return nil, err
		}
		remaining := int64(cap) - rep.TreeNodes
		if remaining < 1 {
			return nil, fmt.Errorf("%w (total cap %d) on %s", ErrTooLarge, cap, c.Name())
		}
		tree, err := Build(cone, int(remaining))
		if err != nil {
			return nil, err
		}
		rep.TreeNodes += int64(tree.NumNodes())
		// Pre-filter: logical paths inside T^sup are never candidates in
		// the default framework-consistent mode.
		var tSup map[string]bool
		if !opt.AllowTestablePaths {
			tSup = make(map[string]bool)
			_, err := core.Enumerate(cone, core.NonRobust, core.Options{
				OnPath: func(lp paths.Logical) { tSup[lp.Key()] = true },
			})
			if err != nil {
				return nil, err
			}
		}
		skip := func(leaf int, finalOne bool) bool {
			if tSup == nil {
				return false
			}
			return tSup[paths.Logical{Path: tree.LeafPath(leaf), FinalOne: finalOne}.Key()]
		}
		onRD := opt.OnRD
		if onRD != nil {
			// Remap cone-local gate ids back to c's ids for the caller.
			inner := opt.OnRD
			onRD = func(lp paths.Logical) {
				remapped := make([]circuit.GateID, len(lp.Path.Gates))
				for i, g := range lp.Path.Gates {
					remapped[i] = mapping[g]
				}
				inner(paths.Logical{
					Path:     paths.Path{Gates: remapped, Pins: lp.Path.Pins},
					FinalOne: lp.FinalOne,
				})
			}
		}
		for _, stuckAt := range [2]bool{false, true} {
			rd, queries := tree.identifyPolarity(stuckAt, skip, onRD)
			rep.RD += rd
			rep.Queries += queries
		}
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// identifyPolarity runs the greedy single-fault loop for one stuck value.
// A redundant stuck-at-b fault at a leaf certifies the logical path with
// final value !b at that leaf as robust dependent; the fault is committed
// as a constant before the next query. skip suppresses candidates (the
// T^sup pre-filter).
func (t *Tree) identifyPolarity(stuckAt bool, skip func(int, bool) bool, onRD func(paths.Logical)) (rd, queries int64) {
	s := satsolver.New()
	// PI variables, shared across leaves.
	piVar := make(map[circuit.GateID]int)
	for _, pi := range t.c.Inputs() {
		piVar[pi] = s.NewVar()
	}
	// One variable per tree node.
	nodeVar := make([]int, len(t.nodes))
	for i := range t.nodes {
		nodeVar[i] = s.NewVar()
	}
	// Selector per leaf guarding the tie to its PI.
	sel := make([]int, len(t.leaves))
	leafOf := make(map[int32]int)
	for i, id := range t.leaves {
		sel[i] = s.NewVar()
		leafOf[id] = i
		pv := piVar[t.nodes[id].orig]
		lv := nodeVar[id]
		// sel -> (leaf == pi)
		s.AddClause(satsolver.MkLit(sel[i], true), satsolver.MkLit(lv, true), satsolver.MkLit(pv, false))
		s.AddClause(satsolver.MkLit(sel[i], true), satsolver.MkLit(lv, false), satsolver.MkLit(pv, true))
	}
	// Gate consistency clauses for internal nodes.
	for i := range t.nodes {
		n := &t.nodes[i]
		if len(n.children) == 0 {
			continue
		}
		encodeGate(s, n.typ, nodeVar[i], childVars(nodeVar, n.children))
	}

	decided := make([]bool, len(t.leaves))
	assumptions := func(extra ...satsolver.Lit) []satsolver.Lit {
		out := make([]satsolver.Lit, 0, len(t.leaves)+len(extra))
		for i := range t.leaves {
			if !decided[i] {
				out = append(out, satsolver.MkLit(sel[i], false))
			}
		}
		return append(out, extra...)
	}

	for li := range t.leaves {
		if skip != nil && skip(li, !stuckAt) {
			continue
		}
		queries++
		// Build the faulty value of the root with this leaf forced to
		// stuckAt, folding constants upward.
		fv, fconst, isConst := t.encodeFaultyPath(s, nodeVar, t.leaves[li], stuckAt)
		root := nodeVar[t.root]
		redundant := false
		if isConst {
			// Faulty output constant: redundant iff good output is always
			// that constant too.
			redundant = !s.Solve(assumptions(satsolver.MkLit(root, fconst))...)
		} else {
			sat := s.Solve(assumptions(satsolver.MkLit(root, false), satsolver.MkLit(fv, true))...) ||
				s.Solve(assumptions(satsolver.MkLit(root, true), satsolver.MkLit(fv, false))...)
			redundant = !sat
		}
		if !redundant {
			continue
		}
		rd++
		if onRD != nil {
			onRD(paths.Logical{Path: t.LeafPath(li), FinalOne: !stuckAt})
		}
		// Commit: permanently disable the PI tie and force the constant.
		decided[li] = true
		s.AddClause(satsolver.MkLit(sel[li], true))
		s.AddClause(satsolver.MkLit(nodeVar[t.leaves[li]], !stuckAt))
	}
	return rd, queries
}

// encodeFaultyPath encodes the root value of the tree with the given leaf
// replaced by constant b, re-using the good values of all off-path
// subtrees. It folds controlling constants upward and returns either a
// fresh variable or a constant.
func (t *Tree) encodeFaultyPath(s *satsolver.Solver, nodeVar []int, leaf int32, b bool) (v int, constVal, isConst bool) {
	curConst, curIsConst := b, true
	curVar := -1
	id := leaf
	for t.nodes[id].parent != -1 {
		p := t.nodes[id].parent
		pn := &t.nodes[p]
		typ := pn.typ
		switch typ {
		case circuit.Output, circuit.Buf, circuit.Not:
			inv := typ == circuit.Not
			if curIsConst {
				curConst = curConst != inv
			} else {
				nv := s.NewVar()
				encodeGate(s, typ, nv, []int{curVar})
				curVar = nv
			}
		default:
			ctrl, _ := typ.Controlling()
			outWhenCtrl := ctrl != typ.Inverting()
			if curIsConst && curConst == ctrl {
				// Controlling constant: output folds to a constant.
				curConst = outWhenCtrl
			} else {
				// Gather off-path children (good copies).
				others := make([]int, 0, len(pn.children))
				for ci, ch := range pn.children {
					if int32(ci) == t.nodes[id].childIdx {
						continue
					}
					others = append(others, nodeVar[ch])
				}
				if curIsConst {
					// Non-controlling constant drops out of the gate.
					nv := s.NewVar()
					if len(others) == 1 {
						// Gate degenerates to buf/not of the remaining
						// child.
						single := circuit.Buf
						if typ.Inverting() {
							single = circuit.Not
						}
						encodeGate(s, single, nv, others)
					} else {
						encodeGate(s, typ, nv, others)
					}
					curVar = nv
					curIsConst = false
				} else {
					nv := s.NewVar()
					encodeGate(s, typ, nv, append(others, curVar))
					curVar = nv
				}
			}
		}
		id = p
	}
	if curIsConst {
		return -1, curConst, true
	}
	return curVar, false, false
}

func childVars(nodeVar []int, children []int32) []int {
	out := make([]int, len(children))
	for i, c := range children {
		out[i] = nodeVar[c]
	}
	return out
}

// encodeGate adds Tseitin clauses for y = typ(ins...).
func encodeGate(s *satsolver.Solver, typ circuit.GateType, y int, ins []int) {
	switch typ {
	case circuit.Output, circuit.Buf:
		s.AddClause(satsolver.MkLit(y, true), satsolver.MkLit(ins[0], false))
		s.AddClause(satsolver.MkLit(y, false), satsolver.MkLit(ins[0], true))
	case circuit.Not:
		s.AddClause(satsolver.MkLit(y, true), satsolver.MkLit(ins[0], true))
		s.AddClause(satsolver.MkLit(y, false), satsolver.MkLit(ins[0], false))
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		ctrl, _ := typ.Controlling()
		outWhenCtrl := ctrl != typ.Inverting()
		big := make([]satsolver.Lit, 0, len(ins)+1)
		for _, x := range ins {
			s.AddClause(satsolver.MkLit(y, !outWhenCtrl), satsolver.MkLit(x, ctrl))
			big = append(big, satsolver.MkLit(x, !ctrl))
		}
		big = append(big, satsolver.MkLit(y, outWhenCtrl))
		s.AddClause(big...)
	default:
		panic("leafdag: encodeGate on " + typ.String())
	}
}
