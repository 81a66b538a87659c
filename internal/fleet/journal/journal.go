// Package journal is the fleet coordinator's write-ahead job journal:
// an append-only file of version-stamped, individually-checksummed JSON
// records (the rdstore/v1 framing discipline applied to a log), flushed
// before the side effect each record describes. The journal is the
// source of truth for recovery — a restarted or promoted coordinator
// replays it to rebuild job state exactly; it never reconciles against
// workers or guesses.
//
// Fencing: every record carries the coordinator term that wrote it. A
// Writer bound to a Fence checks its term before each append, so an old
// primary that wakes after a standby promotion fails typed with
// ErrStaleCoordinator instead of double-merging a cone; the serve
// follower lane enforces the same floor across processes (a stale
// shipment answers 409).
//
// Corruption: a truncated, bit-flipped or foreign-version record fails
// typed (*CorruptError, carrying the byte offset of the bad record,
// mirroring core.CorruptCheckpointError). Replay returns every record
// before the corruption, so recovery degrades to
// replay-up-to-corruption + recompute-the-rest — never a wrong merge.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"rdfault/internal/faultinject"
)

// FormatVersion stamps every journal record. A reader that finds a
// different stamp treats the record as corrupt (typed) rather than
// guessing at an old layout.
const FormatVersion = "rdjournal/v2"

// Record kinds, in the order a clean run writes them. The payload
// schemas live with the coordinator (package fleet); the journal layer
// frames, checksums and fences records without interpreting them.
const (
	// KindAdmit: the job was admitted — circuit, heuristic, criterion,
	// the netlist and global input sort every dispatch ships, and every
	// cone's name and store key. The one record recovery cannot do
	// without.
	KindAdmit = "admit"
	// KindLease: a cone was leased to a worker under an epoch, with a
	// deadline. Journaled before the dispatch leaves.
	KindLease = "lease"
	// KindSlice: a worker streamed an interrupted slice's checkpoint,
	// which covers the walk of a group of cones. Journaled before the
	// coordinator adopts the checkpoint.
	KindSlice = "slice"
	// KindEpoch: a cone's epoch advanced (an abandoned dispatch); any
	// reply under an older epoch is provably a zombie.
	KindEpoch = "epoch"
	// KindAnswer: a sealed complete ConeAnswer was accepted. Journaled
	// before the cone is marked done — the flush-before-side-effect
	// discipline that makes at-most-once merging recoverable.
	KindAnswer = "answer"
	// KindSeal: the run merged; final counters.
	KindSeal = "seal"
	// KindTakeover: a restarted or promoted coordinator took the job
	// over under a new term.
	KindTakeover = "takeover"
	// KindShutdown: the coordinator sealed the journal on a graceful
	// interrupt; the job resumes via -resume-journal.
	KindShutdown = "shutdown"
)

// Typed journal errors; match with errors.Is.
var (
	// ErrCorruptRecord: a record exists but fails validation (checksum,
	// format version, framing, sequence). The concrete *CorruptError
	// carries the byte offset. Replay callers treat everything from that
	// offset on as lost — recompute, never guess.
	ErrCorruptRecord = errors.New("journal: corrupt record")
	// ErrStaleCoordinator: the writer's coordinator term has been fenced
	// by a newer coordinator (a standby was promoted, or a restart took
	// the job over). The old primary must stop: its merges are rejected
	// on every path.
	ErrStaleCoordinator = errors.New("journal: stale coordinator term")
)

// CorruptError reports one unusable journal record and where it starts.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

// Error names the file, offset and what failed to validate.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt record in %s at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// Unwrap matches errors.Is(err, ErrCorruptRecord).
func (e *CorruptError) Unwrap() error { return ErrCorruptRecord }

// Record is one journal entry: the envelope every line of the file
// decodes to. Sum is FNV-1a over the record serialized with Sum empty
// (the ConeAnswer sealing idiom), so a single flipped bit anywhere in
// the line fails validation.
type Record struct {
	Version string          `json:"v"`
	Seq     uint64          `json:"seq"`
	Term    uint64          `json:"term"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Sum     string          `json:"sum"`
}

func (r *Record) sum() string {
	cp := *r
	cp.Sum = ""
	b, err := json.Marshal(cp)
	if err != nil {
		return "unmarshalable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// seal stamps the record's checksum.
func (r *Record) seal() { r.Sum = r.sum() }

// Fence arbitrates coordinator terms in one process: the in-memory
// analogue of the serve follower lane's term floor. A Writer bound to a
// fence refuses appends once a newer term has been acquired.
type Fence struct {
	mu   sync.Mutex
	term uint64
}

// NewFence returns a fence with no term acquired yet.
func NewFence() *Fence { return &Fence{} }

// Acquire advances the fence to a new term — at least min, and strictly
// above every term acquired before — and returns it. Every writer on an
// older term is fenced from that moment on.
func (f *Fence) Acquire(min uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.term++
	if f.term < min {
		f.term = min
	}
	return f.term
}

// Term reads the current fenced floor (0 = nothing acquired).
func (f *Fence) Term() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.term
}

// Check fails typed if term has been superseded.
func (f *Fence) Check(term uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if term < f.term {
		return fmt.Errorf("term %d fenced by term %d: %w", term, f.term, ErrStaleCoordinator)
	}
	return nil
}

// Writer appends records to one journal file. Every Append is written
// and fsynced before it returns — the caller may only perform a side
// effect after its record is durable. A Writer is safe for concurrent
// use.
type Writer struct {
	// Ship, when set, is called after each durable append with the
	// record's encoded line (no trailing newline) — the journal-shipping
	// hook that feeds a hot standby. A shipping error wrapping
	// ErrStaleCoordinator fails the Append (the follower fenced us);
	// any other shipping error goes to OnShipError and the append
	// succeeds — a partitioned standby costs takeover freshness, never
	// the primary's progress.
	Ship func(term uint64, line []byte) error
	// OnShipError receives non-fatal shipping failures.
	OnShipError func(error)

	mu    sync.Mutex
	f     *os.File
	path  string
	term  uint64
	seq   uint64
	bytes int64
	fence *Fence
}

// Create truncates (or creates) the journal at path and returns a
// writer at term. A nil fence disables in-process fencing (the serve
// follower lane can still fence across processes).
func Create(path string, term uint64, fence *Fence) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	return &Writer{f: f, path: path, term: term, fence: fence}, nil
}

// AppendExisting opens the journal at path for appending, continuing
// the sequence after lastSeq under a (typically bumped) term — the
// recovery path: replay first, then append the takeover and everything
// after it to the same file.
func AppendExisting(path string, term, lastSeq uint64, fence *Fence) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Writer{f: f, path: path, term: term, seq: lastSeq, bytes: st.Size(), fence: fence}, nil
}

// Path returns the journal file's path.
func (w *Writer) Path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.path
}

// Term returns the writer's coordinator term.
func (w *Writer) Term() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.term
}

// Seq returns the last sequence number written.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Bytes returns the journal's size in bytes as written by this writer.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Append journals one record per payload, all of one kind, and makes
// them durable with one write and one fsync before returning — only
// then may the caller perform the side effect the records describe. A
// fenced term fails typed with ErrStaleCoordinator and writes nothing.
// The records take consecutive sequence numbers; a crash mid-write
// leaves a torn tail that Replay cuts at the first damaged record, so
// an append is durable either as a prefix of its records or not at all.
//
// Fault-injection points: coord.journal.latency, once per append
// (KindSleep wedges it, KindError fails it), and coord.journal.corrupt,
// once per record (KindCorrupt rots the line on its way to disk; a
// later replay fails typed at that record's offset).
func (w *Writer) Append(kind string, payloads ...any) error {
	pbs := make([][]byte, len(payloads))
	for i, p := range payloads {
		pb, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("journal: encode %s payload: %w", kind, err)
		}
		pbs[i] = pb
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fence != nil {
		if err := w.fence.Check(w.term); err != nil {
			return fmt.Errorf("journal: append %s: %w", kind, err)
		}
	}
	if err := faultinject.Fire(faultinject.PointCoordJournalLatency); err != nil {
		return fmt.Errorf("journal: append %s: %w", kind, err)
	}
	lines := make([][]byte, len(pbs))
	var buf []byte
	for i, pb := range pbs {
		rec := Record{Version: FormatVersion, Seq: w.seq + uint64(i) + 1, Term: w.term, Kind: kind, Payload: pb}
		rec.seal()
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: encode %s: %w", kind, err)
		}
		lines[i] = faultinject.Corrupt(faultinject.PointCoordJournalCorrupt, line)
		buf = append(append(buf, lines[i]...), '\n')
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("journal: write %s: %w", kind, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", kind, err)
	}
	w.seq += uint64(len(lines))
	w.bytes += int64(len(buf))

	if w.Ship != nil {
		for _, line := range lines {
			if err := w.Ship(w.term, line); err != nil {
				if errors.Is(err, ErrStaleCoordinator) {
					return fmt.Errorf("journal: ship %s: %w", kind, err)
				}
				if w.OnShipError != nil {
					w.OnShipError(err)
				}
			}
		}
	}
	return nil
}

// Close releases the journal file. The file is already durable — every
// Append synced itself.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
