package store

import (
	"fmt"
	"math/rand"

	"rdfault/internal/circuit"
)

// EditKind is one local ECO edit class — the three edit families of the
// equivalence suite.
type EditKind uint8

const (
	// EditGateSwap flips a gate's type to its dual (AND<->OR,
	// NAND<->NOR): a functional change confined to one gate.
	EditGateSwap EditKind = iota
	// EditBufferInsert splices a fanout-free buffer into one fanin lead:
	// function preserved, shape (and Segments) changed.
	EditBufferInsert
	// EditPinSwap rewires a gate by exchanging two of its fanin pins:
	// the connection order changes, which moves every sort decision at
	// that gate.
	EditPinSwap
)

// String names the edit kind.
func (k EditKind) String() string {
	switch k {
	case EditGateSwap:
		return "gate-swap"
	case EditBufferInsert:
		return "buffer-insert"
	case EditPinSwap:
		return "pin-swap"
	}
	return fmt.Sprintf("EditKind(%d)", uint8(k))
}

// Edit is one applied edit, described against the original circuit's
// gate IDs.
type Edit struct {
	Kind EditKind
	// Gate is the edited gate (original ID).
	Gate circuit.GateID
	// Pin and Pin2 locate the edited leads: the buffered pin for
	// EditBufferInsert, the exchanged pair for EditPinSwap.
	Pin, Pin2 int
	// ConeIdx is the output index whose cone the edit was drawn from
	// (the gate may be shared with other cones).
	ConeIdx int
}

// MutateKCones returns a copy of c with one seeded edit applied inside
// each of k distinct output cones — the ECO workload generator of the
// equivalence suite. Edits are described against original gate IDs; the
// returned circuit is rebuilt with the same gate names (new buffers
// aside), so it is a realistic revision, not a relabeling. Revisions
// chain: the result can be edited again.
func MutateKCones(c *circuit.Circuit, k int, seed int64) (*circuit.Circuit, []Edit, error) {
	outputs := c.Outputs()
	if len(outputs) == 0 {
		return nil, nil, fmt.Errorf("store: circuit %s has no outputs to edit", c.Name())
	}
	if k <= 0 {
		k = 1
	}
	if k > len(outputs) {
		k = len(outputs)
	}
	rng := rand.New(rand.NewSource(seed))
	var edits []Edit
	for _, ci := range rng.Perm(len(outputs))[:k] {
		e, ok := pickEdit(c, outputs[ci], ci, rng)
		if !ok {
			// Degenerate cone (an output wired straight to an input has no
			// editable gate); skip it rather than fail the workload.
			continue
		}
		edits = append(edits, e)
	}
	if len(edits) == 0 {
		return nil, nil, fmt.Errorf("store: no editable cone in %s", c.Name())
	}
	out, err := applyEdits(c, edits)
	if err != nil {
		return nil, nil, err
	}
	return out, edits, nil
}

// pickEdit draws one edit inside po's cone: an internal gate of the
// cone plus an edit kind it supports.
func pickEdit(c *circuit.Circuit, po circuit.GateID, coneIdx int, rng *rand.Rand) (Edit, bool) {
	// Cone membership: the transitive fanin of po.
	in := make([]bool, c.NumGates())
	stack := []circuit.GateID{po}
	in[po] = true
	var cands []circuit.GateID
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch c.Type(g) {
		case circuit.Input, circuit.Output:
		default:
			cands = append(cands, g)
		}
		for _, f := range c.Fanin(g) {
			if !in[f] {
				in[f] = true
				stack = append(stack, f)
			}
		}
	}
	if len(cands) == 0 {
		return Edit{}, false
	}
	g := cands[rng.Intn(len(cands))]
	fanin := c.Fanin(g)
	kind := EditKind(rng.Intn(3))
	// Fall back to the always-applicable buffer insertion when the drawn
	// kind doesn't fit the drawn gate.
	switch kind {
	case EditGateSwap:
		if dualType(c.Type(g)) == c.Type(g) {
			kind = EditBufferInsert
		}
	case EditPinSwap:
		if len(fanin) < 2 {
			kind = EditBufferInsert
		}
	}
	e := Edit{Kind: kind, Gate: g, ConeIdx: coneIdx}
	switch kind {
	case EditBufferInsert:
		e.Pin = rng.Intn(len(fanin))
	case EditPinSwap:
		perm := rng.Perm(len(fanin))
		e.Pin, e.Pin2 = perm[0], perm[1]
	}
	return e, true
}

// dualType maps a gate type to its swap partner (identity when the type
// has none).
func dualType(t circuit.GateType) circuit.GateType {
	switch t {
	case circuit.And:
		return circuit.Or
	case circuit.Or:
		return circuit.And
	case circuit.Nand:
		return circuit.Nor
	case circuit.Nor:
		return circuit.Nand
	}
	return t
}

// applyEdits rebuilds c with the edits applied. Declaration order is
// creation order, which the builder has verified topological, so a
// single increasing scan sees every fanin before its consumer (the same
// idiom as synth.InsertBuffers).
func applyEdits(c *circuit.Circuit, edits []Edit) (*circuit.Circuit, error) {
	byGate := make(map[circuit.GateID][]Edit, len(edits))
	for _, e := range edits {
		byGate[e.Gate] = append(byGate[e.Gate], e)
	}
	b := circuit.NewBuilder(c.Name() + "_eco")
	gmap := make([]circuit.GateID, c.NumGates())
	// Inserted buffers take the lowest free eco_b<k> names, so editing a
	// revision that already holds eco_b0 does not clash with it.
	bufs := 0
	bufName := func() string {
		for {
			name := fmt.Sprintf("eco_b%d", bufs)
			bufs++
			if _, taken := c.GateByName(name); !taken {
				return name
			}
		}
	}
	for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
		gate := c.Gate(g)
		switch gate.Type {
		case circuit.Input:
			gmap[g] = b.Input(gate.Name)
		case circuit.Output:
			gmap[g] = b.Output(gate.Name, gmap[gate.Fanin[0]])
		default:
			fanin := make([]circuit.GateID, len(gate.Fanin))
			for pin, f := range gate.Fanin {
				fanin[pin] = gmap[f]
			}
			typ := gate.Type
			for _, e := range byGate[g] {
				switch e.Kind {
				case EditGateSwap:
					typ = dualType(typ)
				case EditBufferInsert:
					fanin[e.Pin] = b.Gate(circuit.Buf, bufName(), fanin[e.Pin])
				case EditPinSwap:
					fanin[e.Pin], fanin[e.Pin2] = fanin[e.Pin2], fanin[e.Pin]
				}
			}
			gmap[g] = b.Gate(typ, gate.Name, fanin...)
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("store: apply edits: %v", err)
	}
	return out, nil
}
