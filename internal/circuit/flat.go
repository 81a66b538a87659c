package circuit

// Flat is the cache-flat struct-of-arrays view of a Circuit: every
// per-gate attribute lives in one dense, index-addressed array, and the
// fanin/fanout adjacency is stored CSR-style (one offsets array plus one
// concatenated payload array) instead of a slice-of-slices. A forward or
// backward sweep therefore walks contiguous memory — no Gate struct
// loads, no per-gate slice headers, no pointer chasing — which is what
// the implication engine's hot loop needs: the paper's speed claim is a
// low-degree polynomial number of *cheap* passes, and the pass cost is
// dominated by cache behavior, not instruction count.
//
// A Flat is derived data: it is built at most once per circuit version
// (lazily, via Circuit.Flat) and shared read-only by every engine bound
// to that circuit, exactly like the analyses managed by
// internal/analysis. Do not mutate any of its slices.
type Flat struct {
	// N is the gate count; every array below is indexed by GateID in
	// [0, N) (offsets arrays have one extra terminator entry).
	N int
	// Types[g] is the gate type of g.
	Types []GateType
	// Level[g] is the logic level of g (0 for PIs).
	Level []int32
	// FaninOff/Fanin is the CSR fanin adjacency: the ordered fanin of
	// gate g is Fanin[FaninOff[g]:FaninOff[g+1]], in pin order. FaninOff
	// has N+1 entries; FaninOff[g] is also the dense lead index of
	// (g, pin 0), matching Circuit.LeadIndex.
	FaninOff []int32
	Fanin    []GateID
	// FanoutOff/Fanout is the CSR fanout adjacency: the fanout
	// destinations of gate g are Fanout[FanoutOff[g]:FanoutOff[g+1]].
	// FanoutPin carries the destination input pin of the matching Fanout
	// entry (a separate parallel array so consumers that only chase
	// destinations — the implication engine — never pull pin bytes into
	// cache).
	FanoutOff []int32
	Fanout    []GateID
	FanoutPin []int32
	// Reach[g] is the output-reachability mask of g: bit b is set when g
	// lies in the cone of an output of bucket b, and output i (in
	// Outputs() order) falls in bucket i*64/len(Outputs()). With at most
	// 64 outputs every output has a bucket to itself and the mask is
	// exact; beyond that outputs share buckets and the mask
	// over-approximates. Cones are closed under fanin, so Reach[f]
	// contains Reach[g] whenever f feeds g. The implication engine uses
	// it to stop propagating into logic a path can no longer reach.
	Reach []uint64
}

// FaninOf returns the ordered fanin of gate g as a subslice of the CSR
// payload array. Read-only.
func (f *Flat) FaninOf(g GateID) []GateID {
	return f.Fanin[f.FaninOff[g]:f.FaninOff[g+1]]
}

// FanoutOf returns the fanout destinations of gate g as a subslice of
// the CSR payload array. Read-only.
func (f *Flat) FanoutOf(g GateID) []GateID {
	return f.Fanout[f.FanoutOff[g]:f.FanoutOff[g+1]]
}

// buildFlat packs c into the struct-of-arrays layout. One pass over the
// gates sizes the CSR arrays exactly; a second fills them, so the whole
// layout is a handful of right-sized allocations. A reverse pass over the
// gate IDs, which are topological, then folds each gate's Reach mask into
// its fanins.
func buildFlat(c *Circuit) *Flat {
	n := len(c.gates)
	f := &Flat{
		N:         n,
		Types:     make([]GateType, n),
		Level:     make([]int32, n),
		FaninOff:  make([]int32, n+1),
		FanoutOff: make([]int32, n+1),
	}
	copy(f.Level, c.level)
	nLeads := 0
	for i := range c.gates {
		f.Types[i] = c.gates[i].Type
		nLeads += len(c.gates[i].Fanin)
	}
	f.Fanin = make([]GateID, 0, nLeads)
	f.Fanout = make([]GateID, 0, nLeads)
	f.FanoutPin = make([]int32, 0, nLeads)
	for i := range c.gates {
		f.FaninOff[i] = int32(len(f.Fanin))
		f.Fanin = append(f.Fanin, c.gates[i].Fanin...)
	}
	f.FaninOff[n] = int32(len(f.Fanin))
	for i := range c.fanout {
		f.FanoutOff[i] = int32(len(f.Fanout))
		for _, e := range c.fanout[i] {
			f.Fanout = append(f.Fanout, e.To)
			f.FanoutPin = append(f.FanoutPin, int32(e.Pin))
		}
	}
	f.FanoutOff[n] = int32(len(f.Fanout))
	f.Reach = make([]uint64, n)
	for i, o := range c.outputs {
		f.Reach[o] = 1 << (i * 64 / len(c.outputs))
	}
	for g := n - 1; g >= 0; g-- {
		for _, fi := range f.Fanin[f.FaninOff[g]:f.FaninOff[g+1]] {
			f.Reach[fi] |= f.Reach[g]
		}
	}
	return f
}

// Flat returns the flattened struct-of-arrays view of the circuit,
// building it on first use and sharing it afterwards. The circuit is
// immutable and version-stamped, so the layout can never go stale; every
// implication engine for this circuit shares one Flat, which is why
// creating an engine does not re-derive the netlist. Safe for concurrent
// use.
func (c *Circuit) Flat() *Flat {
	c.flatOnce.Do(func() { c.flat = buildFlat(c) })
	return c.flat
}
