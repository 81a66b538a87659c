package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"rdfault/internal/circuit"
	"rdfault/internal/faultinject"
	"rdfault/internal/logic"
)

// CheckpointVersion stamps the checkpoint of a whole-circuit Enumerate;
// ConesCheckpointVersion stamps that of an output-restricted
// EnumerateCones walk, which also carries the requested outputs and the
// per-gate tallies. Decode rejects any other version rather than
// guessing, each entry point refuses the other's kind with
// ErrCheckpointKind, and a build that predates the restricted kind
// refuses it as an unknown version.
const (
	CheckpointVersion      = 1
	ConesCheckpointVersion = 2
)

// ErrCheckpointKind is the sentinel for a valid checkpoint handed to the
// wrong entry point: a whole-circuit checkpoint to EnumerateCones, or an
// output-restricted one to Enumerate.
var ErrCheckpointKind = errors.New("core: checkpoint is for the other kind of walk")

// Checkpoint captures everything a deadline- or cancel-interrupted
// Enumerate or EnumerateCones needs to finish later: the untaken DFS
// frontier (one entry per un-walked branch, each with its path prefix
// and implication-engine snapshot) plus the counters accumulated before
// the interruption. Resuming via Options.Checkpoint walks exactly the
// complement of what the interrupted run counted, so the combined
// counters are bit-identical to an uninterrupted run for any worker
// count.
//
// A checkpoint is bound to one (circuit, criterion, input sort) triple,
// recorded as fingerprints, and a restricted one to its outputs; the
// walk refuses to resume against anything else.
type Checkpoint struct {
	Version   int                `json:"version"`
	Circuit   string             `json:"circuit"`
	CircuitFP uint64             `json:"circuit_fp"`
	Criterion string             `json:"criterion"`
	SortFP    uint64             `json:"sort_fp"` // 0 when the criterion uses no sort
	Counters  CheckpointCounters `json:"counters"`
	Tasks     []CheckpointTask   `json:"tasks"`
	// Outputs and Tallies belong to an output-restricted walk only: the
	// gate IDs of the requested outputs, in request order, and the
	// nonzero per-gate tallies folded so far.
	Outputs []int             `json:"outputs,omitempty"`
	Tallies []CheckpointTally `json:"tallies,omitempty"`
}

// CheckpointTally is one gate's share of an interrupted restricted walk:
// extensions into it, extensions pruned at it, and, for an output, the
// selected paths ending there.
type CheckpointTally struct {
	Gate     int   `json:"gate"`
	Segments int64 `json:"segments,omitempty"`
	Pruned   int64 `json:"pruned,omitempty"`
	Selected int64 `json:"selected,omitempty"`
}

// CheckpointCounters are the partial tallies of the interrupted run; the
// resumed run starts from them instead of zero.
type CheckpointCounters struct {
	Selected   int64   `json:"selected"`
	Segments   int64   `json:"segments"`
	Pruned     int64   `json:"pruned"`
	SATRejects int64   `json:"sat_rejects"`
	LeadCounts []int64 `json:"lead_counts,omitempty"`
}

// CheckpointTask is one serialized unit of un-walked work: either a whole
// (PI, transition) root walk or a stolen mid-DFS branch (prefix buffers +
// engine snapshot + the edge to take).
type CheckpointTask struct {
	IsRoot bool `json:"is_root,omitempty"`
	PI     int  `json:"pi,omitempty"`
	X      bool `json:"x,omitempty"`

	SnapGates []int   `json:"snap_gates,omitempty"`
	SnapVals  []uint8 `json:"snap_vals,omitempty"`
	Gates     []int   `json:"gates,omitempty"`
	Pins      []int   `json:"pins,omitempty"`
	Vals      []bool  `json:"vals,omitempty"`
	EdgeTo    int     `json:"edge_to,omitempty"`
	EdgePin   int     `json:"edge_pin,omitempty"`
}

// Pending returns the number of un-walked frontier entries.
func (cp *Checkpoint) Pending() int { return len(cp.Tasks) }

// Encode writes the checkpoint as JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(cp)
}

// ErrCorruptCheckpoint is the sentinel for a checkpoint file whose bytes
// cannot be trusted — truncation, garbage, a flipped byte, trailing
// junk, or structurally impossible contents. Match with errors.Is; the
// concrete *CorruptCheckpointError carries the byte offset.
var ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint")

// CorruptCheckpointError reports where and why a checkpoint failed to
// decode. A corrupt checkpoint is never returned as a zero-value
// resumable state: the caller gets this error or a valid frontier,
// nothing in between.
type CorruptCheckpointError struct {
	// Path is the file read, when known ("" for stream decodes).
	Path string
	// Offset is the byte offset at which decoding failed; -1 when the
	// position is unknowable (e.g. an empty file).
	Offset int64
	// Reason says what was wrong.
	Reason string
}

// Error renders the corruption report.
func (e *CorruptCheckpointError) Error() string {
	where := "checkpoint"
	if e.Path != "" {
		where = fmt.Sprintf("checkpoint %s", e.Path)
	}
	if e.Offset >= 0 {
		return fmt.Sprintf("core: corrupt %s at byte %d: %s", where, e.Offset, e.Reason)
	}
	return fmt.Sprintf("core: corrupt %s: %s", where, e.Reason)
}

// Unwrap matches errors.Is(err, ErrCorruptCheckpoint).
func (e *CorruptCheckpointError) Unwrap() error { return ErrCorruptCheckpoint }

// corruptErr builds the typed error from a decoder position.
func corruptErr(off int64, format string, args ...any) error {
	return &CorruptCheckpointError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// DecodeCheckpoint reads a checkpoint written by Encode, validating the
// version and basic structural sanity (index ranges are checked again at
// resume time against the actual circuit). Truncated, mutated or
// trailing-garbage input returns a *CorruptCheckpointError with the byte
// offset of the damage — never a decode panic, and never a silently
// empty checkpoint that would "resume" as a no-op.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	cp := &Checkpoint{}
	dec := json.NewDecoder(r)
	if err := dec.Decode(cp); err != nil {
		off := dec.InputOffset()
		switch e := err.(type) {
		case *json.SyntaxError:
			return nil, corruptErr(e.Offset, "invalid JSON: %v", err)
		case *json.UnmarshalTypeError:
			return nil, corruptErr(e.Offset, "field %s has impossible type: %v", e.Field, err)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, corruptErr(off, "truncated checkpoint")
		}
		return nil, corruptErr(off, "decoding checkpoint: %v", err)
	}
	// Version 0 means the field is absent entirely — a zeroed or foreign
	// file, not honest skew from another build.
	if cp.Version == 0 {
		return nil, corruptErr(-1, "checkpoint has no version field")
	}
	if cp.Version != CheckpointVersion && cp.Version != ConesCheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, this build reads %d and %d",
			cp.Version, CheckpointVersion, ConesCheckpointVersion)
	}
	// Trailing garbage means the file is not what Encode wrote; a partial
	// overwrite or concatenation must not resume as if intact.
	if _, err := dec.Token(); err != io.EOF {
		return nil, corruptErr(dec.InputOffset(), "trailing garbage after checkpoint object")
	}
	// Structural sanity that does not need the circuit: a real checkpoint
	// names its circuit and counts nothing negative. Catching these here
	// stops a zeroed or bit-rotted file from looking like a fresh state.
	if cp.Circuit == "" {
		return nil, corruptErr(-1, "checkpoint names no circuit")
	}
	ctr := cp.Counters
	if ctr.Selected < 0 || ctr.Segments < 0 || ctr.Pruned < 0 || ctr.SATRejects < 0 {
		return nil, corruptErr(-1, "negative counters (selected=%d segments=%d pruned=%d sat=%d)",
			ctr.Selected, ctr.Segments, ctr.Pruned, ctr.SATRejects)
	}
	for _, lc := range ctr.LeadCounts {
		if lc < 0 {
			return nil, corruptErr(-1, "negative lead counter %d", lc)
		}
	}
	for _, t := range cp.Tallies {
		if t.Segments < 0 || t.Pruned < 0 || t.Selected < 0 {
			return nil, corruptErr(-1, "negative tally at gate %d", t.Gate)
		}
	}
	return cp, nil
}

// WriteCheckpointFile stores the checkpoint at path (0644), atomically
// via a temp file in the same directory.
//
// Fault-injection points: PointCheckpointWrite (slow/failed I/O) and
// PointCheckpointBytes (byte corruption on the way to disk) let chaos
// tests prove a rotten spill is detected at read time instead of
// resuming wrong.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	if err := faultinject.Fire(faultinject.PointCheckpointWrite); err != nil {
		return fmt.Errorf("core: writing checkpoint %s: %w", path, err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return err
	}
	data := faultinject.Corrupt(faultinject.PointCheckpointBytes, buf.Bytes())
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile loads a checkpoint stored by WriteCheckpointFile.
// Corrupt files return a *CorruptCheckpointError carrying the path and
// byte offset (errors.Is(err, ErrCorruptCheckpoint)).
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	if err := faultinject.Fire(faultinject.PointCheckpointRead); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := DecodeCheckpoint(f)
	var ce *CorruptCheckpointError
	if errors.As(err, &ce) {
		ce.Path = path
	}
	return cp, err
}

// circuitFingerprint hashes the structure a checkpoint depends on: gate
// count, types, names and fanin topology.
func circuitFingerprint(c *circuit.Circuit) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(c.NumGates())
	for g := circuit.GateID(0); int(g) < c.NumGates(); g++ {
		put(int(c.Type(g)))
		io.WriteString(h, c.Gate(g).Name)
		for _, f := range c.Fanin(g) {
			put(int(f))
		}
		put(-1)
	}
	return h.Sum64()
}

// sortFingerprint hashes an input sort's position tables; 0 for nil.
func sortFingerprint(s *circuit.InputSort) uint64 {
	if s == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, pins := range s.Pos {
		for _, p := range pins {
			put(p)
		}
		put(-1)
	}
	return h.Sum64()
}

// buildConesCheckpoint serializes an interrupted restricted walk: the
// frontier, the walk's counters, the requested outputs and every
// nonzero per-gate tally.
func buildConesCheckpoint(c *circuit.Circuit, cr Criterion, sort *circuit.InputSort,
	walk *Result, outputs []circuit.GateID, tally []coneTally, tasks []task) *Checkpoint {
	cp := buildCheckpoint(ConesCheckpointVersion, c, cr, sort, walk.counters(), tasks)
	for _, o := range outputs {
		cp.Outputs = append(cp.Outputs, int(o))
	}
	for g, t := range tally {
		if t != (coneTally{}) {
			cp.Tallies = append(cp.Tallies, CheckpointTally{Gate: g, Segments: t.segments, Pruned: t.pruned, Selected: t.selected})
		}
	}
	return cp
}

// buildCheckpoint serializes the frontier tasks and counter baseline of
// an interrupted run under the given version.
func buildCheckpoint(version int, c *circuit.Circuit, cr Criterion, sort *circuit.InputSort,
	counters CheckpointCounters, tasks []task) *Checkpoint {
	cp := &Checkpoint{
		Version:   version,
		Circuit:   c.Name(),
		CircuitFP: circuitFingerprint(c),
		Criterion: cr.String(),
		SortFP:    sortFingerprint(sort),
		Counters:  counters,
		Tasks:     make([]CheckpointTask, 0, len(tasks)),
	}
	for _, t := range tasks {
		ct := CheckpointTask{}
		if t.isRoot {
			ct.IsRoot = true
			ct.PI = int(t.pi)
			ct.X = t.x
		} else {
			gates, vals := t.snap.Export()
			ct.SnapGates = make([]int, len(gates))
			for i, g := range gates {
				ct.SnapGates[i] = int(g)
			}
			ct.SnapVals = make([]uint8, len(vals))
			for i, v := range vals {
				ct.SnapVals[i] = uint8(v)
			}
			ct.Gates = make([]int, len(t.gates))
			for i, g := range t.gates {
				ct.Gates[i] = int(g)
			}
			ct.Pins = append([]int(nil), t.pins...)
			ct.Vals = append([]bool(nil), t.vals...)
			ct.EdgeTo = int(t.edge.To)
			ct.EdgePin = t.edge.Pin
		}
		cp.Tasks = append(cp.Tasks, ct)
	}
	return cp
}

// validateFor checks that the checkpoint is of the given version and
// belongs to this exact (circuit, criterion, sort) run, and that every
// task index is in range.
func (cp *Checkpoint) validateFor(version int, c *circuit.Circuit, cr Criterion, sort *circuit.InputSort) error {
	switch cp.Version {
	case version:
	case CheckpointVersion, ConesCheckpointVersion:
		return fmt.Errorf("%w: version %d, this walk resumes version %d", ErrCheckpointKind, cp.Version, version)
	default:
		return fmt.Errorf("core: checkpoint version %d, this build reads %d and %d",
			cp.Version, CheckpointVersion, ConesCheckpointVersion)
	}
	if cp.Circuit != c.Name() || cp.CircuitFP != circuitFingerprint(c) {
		return fmt.Errorf("core: checkpoint is for circuit %q (fingerprint mismatch with %q)",
			cp.Circuit, c.Name())
	}
	if cp.Criterion != cr.String() {
		return fmt.Errorf("core: checkpoint criterion %s, run uses %s", cp.Criterion, cr)
	}
	if fp := sortFingerprint(sort); cp.SortFP != fp {
		return fmt.Errorf("core: checkpoint input sort differs from the run's sort")
	}
	if lc := cp.Counters.LeadCounts; lc != nil && len(lc) != c.NumLeads() {
		return fmt.Errorf("core: checkpoint has %d lead counters, circuit has %d leads", len(lc), c.NumLeads())
	}
	n := c.NumGates()
	for i, t := range cp.Tasks {
		if t.IsRoot {
			if t.PI < 0 || t.PI >= n || c.Type(circuit.GateID(t.PI)) != circuit.Input {
				return fmt.Errorf("core: checkpoint task %d: root PI %d invalid", i, t.PI)
			}
			continue
		}
		if len(t.SnapGates) != len(t.SnapVals) {
			return fmt.Errorf("core: checkpoint task %d: snapshot arity mismatch", i)
		}
		if len(t.Gates) == 0 || len(t.Gates) != len(t.Vals) || len(t.Pins) != len(t.Gates)-1 {
			return fmt.Errorf("core: checkpoint task %d: prefix arity mismatch", i)
		}
		for _, g := range t.SnapGates {
			if g < 0 || g >= n {
				return fmt.Errorf("core: checkpoint task %d: snapshot gate %d out of range", i, g)
			}
		}
		for _, g := range t.Gates {
			if g < 0 || g >= n {
				return fmt.Errorf("core: checkpoint task %d: prefix gate %d out of range", i, g)
			}
		}
		if t.EdgeTo < 0 || t.EdgeTo >= n {
			return fmt.Errorf("core: checkpoint task %d: edge target %d out of range", i, t.EdgeTo)
		}
		for _, v := range t.SnapVals {
			if logic.Value(v) != logic.Zero && logic.Value(v) != logic.One {
				return fmt.Errorf("core: checkpoint task %d: bad snapshot value %d", i, v)
			}
		}
	}
	return nil
}

// validateCones checks a restricted walk's checkpoint: validateFor, the
// same outputs in the same order, and tallies on gates of c.
func (cp *Checkpoint) validateCones(c *circuit.Circuit, cr Criterion, sort *circuit.InputSort, outputs []circuit.GateID) error {
	if err := cp.validateFor(ConesCheckpointVersion, c, cr, sort); err != nil {
		return err
	}
	if len(cp.Outputs) != len(outputs) {
		return fmt.Errorf("core: checkpoint walks %d outputs, the run requests %d", len(cp.Outputs), len(outputs))
	}
	for i, o := range outputs {
		if cp.Outputs[i] != int(o) {
			return fmt.Errorf("core: checkpoint output %d is gate %d, the run requests gate %d", i, cp.Outputs[i], o)
		}
	}
	for _, t := range cp.Tallies {
		if t.Gate < 0 || t.Gate >= c.NumGates() {
			return fmt.Errorf("core: checkpoint tally gate %d out of range", t.Gate)
		}
	}
	return nil
}

// toTasks deserializes the frontier into scheduler tasks.
func (cp *Checkpoint) toTasks() []task {
	ts := make([]task, 0, len(cp.Tasks))
	for _, ct := range cp.Tasks {
		if ct.IsRoot {
			ts = append(ts, task{isRoot: true, pi: circuit.GateID(ct.PI), x: ct.X})
			continue
		}
		gates := make([]circuit.GateID, len(ct.SnapGates))
		vals := make([]logic.Value, len(ct.SnapVals))
		for i, g := range ct.SnapGates {
			gates[i] = circuit.GateID(g)
			vals[i] = logic.Value(ct.SnapVals[i])
		}
		prefix := make([]circuit.GateID, len(ct.Gates))
		for i, g := range ct.Gates {
			prefix[i] = circuit.GateID(g)
		}
		ts = append(ts, task{
			snap:  logic.MakeSnapshot(gates, vals),
			gates: prefix,
			pins:  append([]int(nil), ct.Pins...),
			vals:  append([]bool(nil), ct.Vals...),
			edge:  circuit.Edge{To: circuit.GateID(ct.EdgeTo), Pin: ct.EdgePin},
		})
	}
	return ts
}
