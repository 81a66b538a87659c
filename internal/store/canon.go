// Package store is the content-addressed result store and the
// incremental (ECO) re-identification path built on top of it.
//
// Results are keyed by a canonical netlist hash, so byte-different but
// isomorphic submissions — renamed gates, reshuffled declaration order,
// buffer-padded leads — are cache hits across jobs, replicas and
// process restarts. Two hash flavors split the work:
//
//   - FuncHash collapses buffer chains before canonicalizing, so it is
//     invariant under both synth.Relabel and synth.InsertBuffers. It is
//     the content address: it locates a circuit's store entry.
//   - ShapeHash keeps buffers, so it is relabel-invariant but
//     buffer-sensitive. Reusing stored counters requires a shape match,
//     because buffer insertion changes the Segments tally (every spliced
//     buffer adds one DFS edge extension per path through its lead) even
//     though Selected/RD are provably unchanged.
//
// On top of the whole-circuit address sits cone-granular reuse: each
// output cone's result is stored under ConeKey — the cone's ShapeHash
// plus a canonical digest of the projected input sort plus the
// criterion. A revised circuit's unchanged cones therefore hit the
// store (populated by the ancestor run) and only the delta is
// re-identified; the diff against the ancestor is implicit in the
// content addressing, no explicit ancestry bookkeeping needed. The sort
// digest is part of the key because cones share logic: an edit inside
// cone i can change the global Heuristic-1/2 lead counts of a shared
// gate and thereby the projected sort of an untouched cone j, and a
// cone enumerated under a different σ is a different result.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
)

// canonizer computes canonical forms of one circuit: a deterministic
// renaming of the gates some outputs read that depends only on structure
// the rewrites preserve. Numbers are assigned by a post-order DFS from
// the outputs in the order given, visiting fanins in pin order — PI/PO
// declaration order and fanin pin order are exactly what synth.Relabel
// keeps, so isomorphic circuits get identical canonical forms. Sharing
// is preserved exactly (a gate is numbered once, at first visit), which
// a naive bottom-up tree hash would conflate: two POs reading one shared
// gate and two POs reading duplicated copies have different fanout stems
// and different Selected counts, and must hash differently. One
// canonizer computes a form per call: the whole circuit's for FuncHash
// and ShapeHash, or one output cone's, in place, for its key.
type canonizer struct {
	c *circuit.Circuit
	// memo resolves buffer chains to their first non-buffer ancestor when
	// buffers are collapsed (the FuncHash view); nil keeps buffers as
	// ordinary single-input gates (the ShapeHash and cone-key view).
	memo []circuit.GateID
	// num[g] is gate g's canonical number in the current form, -1 for
	// gates outside it (collapsed buffers included).
	num []int
	// order[i] is the gate with canonical number i.
	order []circuit.GateID
	// bytes is the serialized current form.
	bytes []byte
	stack []canonFrame
}

type canonFrame struct {
	g   circuit.GateID
	pin int
}

func newCanonizer(c *circuit.Circuit, collapse bool) *canonizer {
	n := c.NumGates()
	z := &canonizer{c: c, num: make([]int, n)}
	for i := range z.num {
		z.num[i] = -1
	}
	if collapse {
		z.memo = make([]circuit.GateID, n)
		for i := range z.memo {
			z.memo[i] = circuit.None
		}
	}
	return z
}

// resolve maps g to the gate standing for it in the form.
func (z *canonizer) resolve(g circuit.GateID) circuit.GateID {
	if z.memo == nil {
		return g
	}
	c, memo := z.c, z.memo
	seen := g
	for memo[seen] == circuit.None && c.Type(seen) == circuit.Buf {
		seen = c.Fanin(seen)[0]
	}
	if memo[seen] != circuit.None {
		seen = memo[seen]
	}
	// Path-compress the chain we just walked.
	for v := g; v != seen; v = c.Fanin(v)[0] {
		if memo[v] != circuit.None {
			break
		}
		memo[v] = seen
	}
	memo[seen] = seen
	return seen
}

// number gives g the next canonical number.
func (z *canonizer) number(g circuit.GateID) {
	z.num[g] = len(z.order)
	z.order = append(z.order, g)
}

// visit numbers the unnumbered logic under root in post-order.
func (z *canonizer) visit(root circuit.GateID) {
	root = z.resolve(root)
	if z.num[root] >= 0 {
		return
	}
	z.stack = append(z.stack[:0], canonFrame{root, 0})
	for len(z.stack) > 0 {
		f := &z.stack[len(z.stack)-1]
		fanin := z.c.Fanin(f.g)
		pushed := false
		for f.pin < len(fanin) {
			src := z.resolve(fanin[f.pin])
			f.pin++
			if z.num[src] < 0 {
				z.stack = append(z.stack, canonFrame{src, 0})
				pushed = true
				break
			}
		}
		if pushed {
			continue
		}
		if z.num[f.g] < 0 {
			z.number(f.g)
		}
		z.stack = z.stack[:len(z.stack)-1]
	}
}

// form computes the canonical form of the logic the outputs pos read
// into order and bytes. With inputs set it also numbers, in declaration
// order, the PIs none of them reads: they still change the PI count.
func (z *canonizer) form(pos []circuit.GateID, inputs bool) {
	c := z.c
	for _, g := range z.order {
		z.num[g] = -1
	}
	z.order = z.order[:0]
	// Output gates are pure markers; the walk starts at their sources so
	// the form is independent of output-wrapper naming.
	for _, po := range pos {
		z.visit(c.Fanin(po)[0])
	}
	if inputs {
		for _, pi := range c.Inputs() {
			if z.num[pi] < 0 {
				z.number(pi)
			}
		}
	}

	buf := z.bytes[:0]
	var tmp [binary.MaxVarintLen64]byte
	putInt := func(v int) {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(v))]...)
	}
	for _, g := range z.order {
		buf = append(buf, byte(c.Type(g)))
		fanin := c.Fanin(g)
		putInt(len(fanin))
		for _, f := range fanin {
			putInt(z.num[z.resolve(f)])
		}
	}
	buf = append(buf, '|')
	putInt(len(pos))
	for _, po := range pos {
		putInt(z.num[z.resolve(c.Fanin(po)[0])])
	}
	z.bytes = buf
}

// hash is the SHA-256 of c's whole-circuit canonical form.
func hash(c *circuit.Circuit, collapse bool) string {
	z := newCanonizer(c, collapse)
	z.form(c.Outputs(), true)
	sum := sha256.Sum256(z.bytes)
	return hex.EncodeToString(sum[:])
}

// FuncHash is the buffer-collapsed canonical hash: the content address
// under which a circuit's run entry is stored. Invariant under
// synth.Relabel and synth.InsertBuffers.
func FuncHash(c *circuit.Circuit) string { return hash(c, true) }

// ShapeHash is the buffer-sensitive canonical hash: invariant under
// synth.Relabel only. A stored run's counters (Segments included) may
// be served verbatim only to a submission with the same shape.
func ShapeHash(c *circuit.Circuit) string { return hash(c, false) }

// HashFor returns c's FuncHash and ShapeHash, computed at most once per
// circuit version through the analysis registry (the same compute-once
// discipline every other derived analysis uses).
func HashFor(c *circuit.Circuit) (funcHash, shapeHash string, err error) {
	v, err := analysis.For(c).Memo("store.canonhash", func() (any, error) {
		return [2]string{FuncHash(c), ShapeHash(c)}, nil
	})
	if err != nil {
		return "", "", err
	}
	h := v.([2]string)
	return h[0], h[1], nil
}

// RunKey addresses a whole-circuit result: the content address plus the
// pipeline parameters that shape the counters.
func RunKey(funcHash string, h core.Heuristic, cr core.Criterion) string {
	sum := sha256.Sum256([]byte(funcHash + "|" + h.String() + "|" + cr.String()))
	return hex.EncodeToString(sum[:])
}

// ConeKey addresses one output cone's result: the cone's shape, the
// projected input sort rendered in canonical gate order (gate names
// don't survive relabeling; canonical numbers do — and pin order, which
// indexes each row, is preserved by the rewrites), and the criterion.
// Identical cones under identical projected sorts collide on purpose:
// duplicated logic inside one circuit is stored and enumerated once.
// The store and the fleet compute these keys on the whole circuit with
// ConeKeys; ConeKey on an extracted cone is the reference the tests
// hold them to.
func ConeKey(cone *circuit.Circuit, sort *circuit.InputSort, cr core.Criterion) string {
	return newCanonizer(cone, false).key(cone.Outputs(), true, sort, cr)
}

// ConeKeys returns the ConeKey of every output cone of c under the
// global sort, in Outputs() order, without extracting a cone: the
// canonical DFS from one output numbers exactly the gates c.Cone would
// copy, in the same order, and the global sort's rows are the rows
// InputSort.Cone projects.
func ConeKeys(c *circuit.Circuit, sort *circuit.InputSort, cr core.Criterion) []string {
	z := newCanonizer(c, false)
	keys := make([]string, len(c.Outputs()))
	for i, po := range c.Outputs() {
		keys[i] = z.key([]circuit.GateID{po}, false, sort, cr)
	}
	return keys
}

// key digests the form of the logic the outputs pos read together with
// the criterion and, in canonical gate order, every sort row that orders
// at least two pins, rendered "|s<i>:[p0 p1 …]".
func (z *canonizer) key(pos []circuit.GateID, inputs bool, sort *circuit.InputSort, cr core.Criterion) string {
	z.form(pos, inputs)
	buf := append(z.bytes, "|crit:"+cr.String()...)
	if sort != nil {
		for i, g := range z.order {
			row := sort.Pos[g]
			if len(row) < 2 {
				continue
			}
			buf = strconv.AppendInt(append(buf, "|s"...), int64(i), 10)
			buf = append(buf, ':', '[')
			for k, p := range row {
				if k > 0 {
					buf = append(buf, ' ')
				}
				buf = strconv.AppendInt(buf, int64(p), 10)
			}
			buf = append(buf, ']')
		}
	}
	z.bytes = buf
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// ConeName is the name c.Cone gives the cone of output po:
// "<circuit>.<output>".
func ConeName(c *circuit.Circuit, po circuit.GateID) string {
	return c.Name() + "." + c.Gate(po).Name
}
