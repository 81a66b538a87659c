package logic

import (
	"rdfault/internal/circuit"
)

// Engine propagates stable-value assignments through a circuit by direct
// implications only, with a trail for chronological backtracking. It is
// the workhorse behind the implicit path enumeration of Algorithm 2: the
// enumerator asserts side-input requirements as it extends a path and
// backtracks the engine when it retreats.
//
// The engine runs on the circuit's cache-flat layout (circuit.Flat):
// gate types, levels and the fanin/fanout adjacency live in dense CSR
// arrays shared read-only by every engine of the circuit, and the
// 3-valued domain is packed 2 bits per signal into uint64 words — 32
// signals per word, so the whole stable-value state of a 10k-gate
// circuit is ~2.5KB and stays L1-resident through a DFS walk, and
// full-state sweeps (deep backtracks, queue wipes) run word-parallel.
// The trail and work queue are arena-allocated once at construction
// (their length is bounded by the gate count), so the assign/backtrack
// hot path performs zero allocations.
//
// RefEngine is the retained pointer-structure implementation; the two
// are kept behaviorally identical (same implication rules, same LIFO
// propagation order) and cross-checked by differential and fuzz tests.
//
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	c *circuit.Circuit
	f *circuit.Flat

	// val packs one 2-bit Value per gate, 32 gates per word.
	val []uint64
	// queued is a 1-bit-per-gate membership mask for the work queue.
	queued []uint64
	// trail and queue are fixed-capacity arenas: a gate appears at most
	// once on each between backtracks, so capacity NumGates suffices and
	// append never reallocates.
	trail []circuit.GateID
	queue []circuit.GateID

	// live is the output-bucket mask of Narrow: an assignment schedules
	// only the fanout gates whose Flat.Reach meets it. All ones (no
	// bound) until the first Narrow and again after Reset.
	live uint64

	confl   bool
	nAssign int64 // statistics: total value assignments performed
	nImply  int64 // assignments derived by implication
}

// NewEngine returns an implication engine for c with all gates at X. The
// immutable flat netlist layout is shared across every engine of the
// circuit (built once per circuit version); only the small mutable
// state — packed values, queue mask, trail and queue arenas — is
// allocated here.
func NewEngine(c *circuit.Circuit) *Engine {
	n := c.NumGates()
	return &Engine{
		c:      c,
		f:      c.Flat(),
		val:    make([]uint64, (n+31)/32),
		queued: make([]uint64, (n+63)/64),
		trail:  make([]circuit.GateID, 0, n),
		queue:  make([]circuit.GateID, 0, n),
		live:   ^uint64(0),
	}
}

// Circuit returns the circuit the engine operates on.
func (e *Engine) Circuit() *circuit.Circuit { return e.c }

// Value returns the current stable value of gate g.
func (e *Engine) Value(g circuit.GateID) Value {
	return Value((e.val[g>>5] >> ((uint32(g) & 31) * 2)) & 3)
}

// setVal stores v in gate g's 2-bit lane.
func (e *Engine) setVal(g circuit.GateID, v Value) {
	sh := (uint32(g) & 31) * 2
	w := &e.val[g>>5]
	*w = *w&^(3<<sh) | uint64(v)<<sh
}

// clearVal resets gate g's lane to X.
func (e *Engine) clearVal(g circuit.GateID) {
	e.val[g>>5] &^= 3 << ((uint32(g) & 31) * 2)
}

// Mark returns the current trail position for a later BacktrackTo.
func (e *Engine) Mark() int { return len(e.trail) }

// BacktrackTo undoes every assignment made after the corresponding Mark
// call and clears any recorded conflict. Cost is proportional to the
// number of assignments undone plus any pending queue entries — never to
// the circuit size — so deep DFS walks pay O(1) amortized per edge. A
// full unwind with a long trail short-circuits to a word-parallel wipe
// of the packed value array (32 signals per store), which is cheaper
// than per-entry clears once the trail covers most of the circuit.
func (e *Engine) BacktrackTo(mark int) {
	if mark == 0 && len(e.trail) >= len(e.val) {
		clear(e.val)
	} else {
		for i := len(e.trail) - 1; i >= mark; i-- {
			e.clearVal(e.trail[i])
		}
	}
	e.trail = e.trail[:mark]
	e.confl = false
	e.drainQueue()
}

// drainQueue discards pending work, unmarking only the gates actually
// enqueued (or wiping the mask word-parallel when the queue is long).
func (e *Engine) drainQueue() {
	if len(e.queue) >= len(e.queued) {
		clear(e.queued)
	} else {
		for _, g := range e.queue {
			e.queued[g>>6] &^= 1 << (uint32(g) & 63)
		}
	}
	e.queue = e.queue[:0]
}

// Reset clears all assignments and lifts any Narrow bound.
func (e *Engine) Reset() {
	e.BacktrackTo(0)
	e.live = ^uint64(0)
}

// Narrow bounds implication to the cones of the outputs gate g reaches,
// among the output buckets set in within (all ones for every output):
// until the next Narrow or Reset, an assignment schedules only the fanout
// gates that reach one of them (Flat.Reach). The path enumerator narrows
// to each path gate before asserting it. Every assertion for a path
// through g to an output in within then lies in those cones, which are
// closed under fanin, so a gate outside them could only ever hold the
// forward value of its fanins: no backward rule derives anything from
// such a value and no conflict can arise there. Verdicts, and the values
// of every gate inside the cones, are therefore those of the unbounded
// engine. Values outside the cones may be missing, so snapshots taken
// under a bound are only meaningful for walks that stay inside it.
func (e *Engine) Narrow(g circuit.GateID, within uint64) { e.live = e.f.Reach[g] & within }

// Stats returns the number of explicit+implied assignments and the number
// of implied assignments alone, since engine creation.
func (e *Engine) Stats() (assignments, implications int64) {
	return e.nAssign, e.nImply
}

// Assign asserts that gate g has stable value v (a boolean) and runs
// direct implications to closure. It reports false if a contradiction was
// derived; in that case the caller must BacktrackTo the mark taken before
// the assertion (the engine state is otherwise undefined but fully
// undoable).
func (e *Engine) Assign(g circuit.GateID, v bool) bool {
	return e.AssignValue(g, FromBool(v))
}

// AssignValue is Assign for a Value; asserting X is a no-op.
func (e *Engine) AssignValue(g circuit.GateID, v Value) bool {
	if v == X {
		return !e.confl
	}
	if !e.set(g, v) {
		return false
	}
	return e.propagate()
}

// set records a single assignment without propagating. It returns false on
// immediate conflict.
func (e *Engine) set(g circuit.GateID, v Value) bool {
	cur := e.Value(g)
	if cur == v {
		return true
	}
	if cur != X {
		e.confl = true
		return false
	}
	e.setVal(g, v)
	e.trail = append(e.trail, g)
	e.nAssign++
	e.enqueue(g)
	e.enqueueFanout(g)
	return true
}

// setSelf records a forward implication derived by eval(g) for g itself.
// The caller is mid-eval of g and applies g's remaining rules against the
// fresh value in the same pass, so re-enqueueing g would only buy a
// no-op re-eval — only the fanout destinations are scheduled. The caller
// guarantees e.Value(g) == X.
func (e *Engine) setSelf(g circuit.GateID, v Value) {
	e.setVal(g, v)
	e.trail = append(e.trail, g)
	e.nAssign++
	e.nImply++
	e.enqueueFanout(g)
}

// enqueueFanout schedules the fanout destinations of g that lie inside
// the Narrow bound.
func (e *Engine) enqueueFanout(g circuit.GateID) {
	f := e.f
	for _, to := range f.Fanout[f.FanoutOff[g]:f.FanoutOff[g+1]] {
		if f.Reach[to]&e.live != 0 {
			e.enqueue(to)
		}
	}
}

func (e *Engine) enqueue(g circuit.GateID) {
	w := g >> 6
	b := uint64(1) << (uint32(g) & 63)
	if e.queued[w]&b == 0 {
		e.queued[w] |= b
		e.queue = append(e.queue, g)
	}
}

// propagate runs the work list to fixpoint or first conflict.
func (e *Engine) propagate() bool {
	for len(e.queue) > 0 {
		g := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.queued[g>>6] &^= 1 << (uint32(g) & 63)
		if !e.eval(g) {
			e.drainQueue()
			return false
		}
	}
	return true
}

// imply records a derived assignment.
func (e *Engine) imply(g circuit.GateID, v Value) bool {
	before := e.nAssign
	if !e.set(g, v) {
		return false
	}
	if e.nAssign > before {
		e.nImply++
	}
	return true
}

// gateMeta caches the per-type constants the implication rules need so
// eval never re-derives them through Controlling/Inverting/Not on the
// hot path.
type gateMeta struct {
	ctrl      Value // controlling input value
	nonCtrl   Value // non-controlling input value
	outIfCtrl Value // output when any input is controlling
	outIfNon  Value // output when all inputs are non-controlling
}

// typeMeta is indexed by circuit.GateType; only the simple gates
// AND/OR/NAND/NOR have meaningful entries.
var typeMeta = func() [8]gateMeta {
	var m [8]gateMeta
	for _, t := range []circuit.GateType{circuit.And, circuit.Or, circuit.Nand, circuit.Nor} {
		cb, _ := t.Controlling()
		ctrl := FromBool(cb)
		nonCtrl := ctrl.Not()
		oc, on := ctrl, nonCtrl
		if t.Inverting() {
			oc, on = oc.Not(), on.Not()
		}
		m[t] = gateMeta{ctrl: ctrl, nonCtrl: nonCtrl, outIfCtrl: oc, outIfNon: on}
	}
	return m
}()

// notTab maps a Value to its negation without branching (X stays X).
var notTab = [3]Value{X: X, Zero: One, One: Zero}

// eval applies all direct implication rules available at gate g: forward
// evaluation from its fanins and backward justification from its own
// value toward its fanins. The rule set is identical to RefEngine.eval;
// forward implications for g itself go through setSelf because the
// backward rules below already run against the fresh value in this same
// pass (the implication closure is a unique fixpoint, so skipping the
// redundant re-eval cannot change values, verdicts or trail lengths).
func (e *Engine) eval(g circuit.GateID) bool {
	f := e.f
	t := f.Types[g]
	switch t {
	case circuit.Input:
		return true
	case circuit.Output, circuit.Buf, circuit.Not:
		in := f.Fanin[f.FaninOff[g]]
		iv := e.Value(in)
		ov := e.Value(g)
		if t == circuit.Not {
			iv = notTab[iv]
		}
		// Forward: out := f(in). Backward below justifies from the value g
		// had on entry (a freshly forwarded value needs no justification —
		// its source is the very input it came from).
		if iv != X {
			if ov == X {
				e.setSelf(g, iv)
			} else if ov != iv {
				e.confl = true
				return false
			}
		}
		// Backward: in := f^-1(out).
		want := ov
		if t == circuit.Not {
			want = notTab[want]
		}
		if want != X && !e.imply(in, want) {
			return false
		}
		return true
	}

	// Simple gates AND/OR/NAND/NOR: constants from the per-type table.
	md := &typeMeta[t]
	ctrl, nonCtrl := md.ctrl, md.nonCtrl
	outIfCtrl, outIfNon := md.outIfCtrl, md.outIfNon

	fanin := f.Fanin[f.FaninOff[g]:f.FaninOff[g+1]]
	unknown := 0
	var lastUnknown circuit.GateID
	anyCtrl := false
	for _, fi := range fanin {
		switch e.Value(fi) {
		case ctrl:
			anyCtrl = true
		case X:
			unknown++
			lastUnknown = fi
		}
	}

	// Forward implications.
	ov := e.Value(g)
	if anyCtrl {
		if ov == X {
			e.setSelf(g, outIfCtrl)
			ov = outIfCtrl
		} else if ov != outIfCtrl {
			e.confl = true
			return false
		}
	} else if unknown == 0 {
		if ov == X {
			e.setSelf(g, outIfNon)
			ov = outIfNon
		} else if ov != outIfNon {
			e.confl = true
			return false
		}
	}

	// Backward implications.
	switch ov {
	case outIfNon:
		// No input may be controlling.
		for _, fi := range fanin {
			if !e.imply(fi, nonCtrl) {
				return false
			}
		}
	case outIfCtrl:
		// At least one input controlling; unit-propagate when forced.
		if !anyCtrl {
			if unknown == 0 {
				e.confl = true
				return false
			}
			if unknown == 1 {
				if !e.imply(lastUnknown, ctrl) {
					return false
				}
			}
		}
	}
	return true
}

// Snapshot is an immutable copy of an engine's assignment state, taken
// with Engine.Snapshot and installed with Engine.Restore. It is the
// handoff unit of parallel path enumeration: a walker packages its
// mid-DFS state so an idle goroutine can continue an untaken branch.
// A Snapshot is safe to share across goroutines, and transports between
// Engine and RefEngine (the differential tests rely on this).
type Snapshot struct {
	gates []circuit.GateID
	vals  []Value
}

// Len returns the number of assignments captured.
func (s Snapshot) Len() int { return len(s.gates) }

// Export copies the snapshot's assignments out for serialization (the
// checkpoint files of a deadline-interrupted enumeration). The returned
// slices are fresh: mutating them does not affect the snapshot.
func (s Snapshot) Export() (gates []circuit.GateID, vals []Value) {
	return append([]circuit.GateID(nil), s.gates...), append([]Value(nil), s.vals...)
}

// MakeSnapshot rebuilds a Snapshot from serialized assignments (the
// inverse of Export). The caller guarantees the set is implication-closed
// for the circuit it will be restored on — snapshots produced by
// Engine.Snapshot and round-tripped through Export satisfy this. The
// slices are copied; len(gates) must equal len(vals).
func MakeSnapshot(gates []circuit.GateID, vals []Value) Snapshot {
	if len(gates) != len(vals) {
		panic("logic: MakeSnapshot with mismatched gates/vals")
	}
	return Snapshot{
		gates: append([]circuit.GateID(nil), gates...),
		vals:  append([]Value(nil), vals...),
	}
}

// Snapshot captures the engine's current assignments (the full trail with
// its values). Cost is O(len(trail)), independent of circuit size. The
// engine must not be mid-propagation (every public entry point leaves it
// settled), so the captured set is implication-closed.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		gates: append([]circuit.GateID(nil), e.trail...),
		vals:  make([]Value, len(e.trail)),
	}
	for i, g := range e.trail {
		s.vals[i] = e.Value(g)
	}
	return s
}

// Restore resets e and installs s verbatim, without re-running
// implications: a snapshot is implication-closed by construction, so the
// propagation fixpoint is preserved and any later Assign derives exactly
// what it would have derived on the engine the snapshot came from. Cost
// is O(previous trail + snapshot), never O(circuit). The target engine
// must operate on the same circuit; statistics counters are unaffected.
func (e *Engine) Restore(s Snapshot) {
	e.BacktrackTo(0)
	for i, g := range s.gates {
		e.setVal(g, s.vals[i])
	}
	e.trail = append(e.trail, s.gates...)
}

// AssignAll asserts a set of (gate, value) requirements in order, stopping
// at the first conflict. It reports whether all assertions succeeded.
func (e *Engine) AssignAll(gates []circuit.GateID, vals []Value) bool {
	for i, g := range gates {
		if !e.AssignValue(g, vals[i]) {
			return false
		}
	}
	return true
}
