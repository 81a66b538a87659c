package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"sort"
	"sync"
	"time"

	"rdfault/internal/faultinject"
	"rdfault/internal/seal"
	"rdfault/internal/telemetry"
)

// FormatVersion stamps every persisted entry. A reader that finds a
// different stamp treats the entry as corrupt (typed, falls back to
// recomputation) rather than guessing at an old layout.
const FormatVersion = "rdstore/v1"

// Typed store errors; match with errors.Is.
var (
	// ErrMiss: no entry under that key.
	ErrMiss = errors.New("store: entry not found")
	// ErrCorruptEntry: an entry exists but fails validation (checksum,
	// format version, key echo). The concrete *seal.CorruptError names
	// the file and the reason. Callers must treat this exactly like a
	// miss — recompute — never serve the payload.
	ErrCorruptEntry = errors.New("store: corrupt entry")
)

// Stats counts a handle's traffic since Open.
type Stats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Corrupt int64 `json:"corrupt"`
	Writes  int64 `json:"writes"`
	// Evictions counts entries removed by the size cap (SetMaxBytes).
	Evictions int64 `json:"evictions,omitempty"`
}

// Store is a disk-backed, content-addressed result store. Entries are
// individually checksummed and version-stamped JSON files fanned out
// under the store directory; writes are atomic (temp file + rename), so
// a crashed writer leaves either the old entry or the new one, never a
// torn read. A Store handle is cheap and carries no state beyond
// counters — everything durable lives in the directory, which is what
// lets results survive process restarts and be shared between replicas
// on common storage.
type Store struct {
	dir   string
	telem atomic.Pointer[telemetry.Log]

	hits, misses, corrupt, writes atomic.Int64

	// maxBytes caps the store's resident entry bytes (0 = unbounded);
	// exceeding it after a write evicts least-recently-used entries.
	maxBytes  atomic.Int64
	evictions atomic.Int64
	evictMu   sync.Mutex
}

// Open returns a handle on dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetTelemetry routes the store's events (store.hit/miss/delta/corrupt)
// into l; sharing the serving layer's log interleaves store activity
// into the same totally-ordered stream.
func (s *Store) SetTelemetry(l *telemetry.Log) { s.telem.Store(l) }

// emit writes one store event (safe no-op without a log).
func (s *Store) emit(kind, detail string, fields map[string]int64) {
	s.telem.Load().Emit(telemetry.Event{
		Source: "store", Kind: kind, Detail: detail, Fields: fields,
	})
}

// Stats snapshots this handle's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
	}
}

// SetMaxBytes caps the store's resident entry bytes; 0 removes the cap.
// When a write pushes the store over the cap, least-recently-used
// entries (by access time — get refreshes it) are evicted until the
// store fits. Eviction is always safe: a later lookup of an evicted key
// is a miss, and every caller already treats a miss as "recompute".
func (s *Store) SetMaxBytes(n int64) { s.maxBytes.Store(n) }

// entry is the on-disk envelope: version stamp, kind and key echo (a
// rename gone wrong or a filesystem-level swap is detected, not
// trusted), the payload, and its checksum (seal.Sum of the payload
// bytes).
type entry struct {
	Version string          `json:"version"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Sum     string          `json:"sum"`
}

// path shards entries by key prefix so one directory never holds the
// whole store.
func (s *Store) path(kind, key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, kind, shard, key+".json")
}

// put persists one entry. Fault-injection points: store.write (lost
// writes) and store.corrupt (bit rot on the way to disk — a later read
// fails its checksum and the caller recomputes).
func (s *Store) put(kind, key string, payload any) error {
	if err := faultinject.Fire(faultinject.PointStoreWrite); err != nil {
		return fmt.Errorf("store: write %s/%s: %w", kind, key, err)
	}
	pb, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: encode %s/%s: %w", kind, key, err)
	}
	b, err := json.Marshal(entry{
		Version: FormatVersion, Kind: kind, Key: key,
		Payload: pb, Sum: seal.Sum(pb),
	})
	if err != nil {
		return fmt.Errorf("store: encode %s/%s: %w", kind, key, err)
	}
	b = faultinject.Corrupt(faultinject.PointStoreCorrupt, b)
	if err := seal.WriteFile(s.path(kind, key), b); err != nil {
		return fmt.Errorf("store: write %s/%s: %w", kind, key, err)
	}
	s.writes.Add(1)
	s.maybeEvict()
	return nil
}

// maybeEvict enforces the size cap after a write: if the store's
// resident entry bytes exceed SetMaxBytes, the least-recently-accessed
// entries are removed until it fits. One evictor runs at a time; a
// concurrent write simply triggers the next pass.
func (s *Store) maybeEvict() {
	max := s.maxBytes.Load()
	if max <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()

	type resident struct {
		path  string
		size  int64
		atime time.Time
	}
	var (
		entries []resident
		total   int64
	)
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		entries = append(entries, resident{path: path, size: info.Size(), atime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if total <= max {
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
	var evicted, freed int64
	for _, e := range entries {
		if total <= max {
			break
		}
		if os.Remove(e.path) != nil {
			continue // raced with a concurrent reader/rewriter; skip
		}
		total -= e.size
		freed += e.size
		evicted++
	}
	if evicted > 0 {
		s.evictions.Add(evicted)
		s.emit("store.evict", "", map[string]int64{
			"evicted": evicted, "bytes_freed": freed, "resident_bytes": total,
		})
	}
}

// get loads and validates one entry. ErrMiss for an absent key; a
// *seal.CorruptError (emitting a store.corrupt event) for an entry that
// fails any validation. Fault-injection point: store.read.
func (s *Store) get(kind, key string, payload any) error {
	path := s.path(kind, key)
	if err := faultinject.Fire(faultinject.PointStoreRead); err != nil {
		return fmt.Errorf("store: read %s/%s: %w", kind, key, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return ErrMiss
		}
		return fmt.Errorf("store: read %s/%s: %w", kind, key, err)
	}
	if err := s.validate(path, kind, key, b, payload); err != nil {
		s.corrupt.Add(1)
		s.emit("store.corrupt", err.Error(), nil)
		return err
	}
	s.hits.Add(1)
	// Refresh the entry's LRU recency. mtime stands in for access time
	// (atime is unreliable across mount options); a failed touch only
	// ages the entry, it cannot corrupt anything.
	now := time.Now()
	os.Chtimes(path, now, now)
	return nil
}

func (s *Store) validate(path, kind, key string, b []byte, payload any) error {
	corrupt := func(reason string) error {
		return &seal.CorruptError{Kind: ErrCorruptEntry, Path: path, Offset: -1, Reason: reason}
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return corrupt("unparsable envelope")
	}
	switch {
	case e.Version != FormatVersion:
		return corrupt(fmt.Sprintf("format %q, want %q", e.Version, FormatVersion))
	case e.Kind != kind || e.Key != key:
		return corrupt("entry identity mismatch")
	case seal.Sum(e.Payload) != e.Sum:
		return corrupt("checksum mismatch")
	}
	if err := json.Unmarshal(e.Payload, payload); err != nil {
		return corrupt("unparsable payload")
	}
	return nil
}

// RunRecord is a whole-circuit identification result: the merged
// cone-granular counters plus the shape fingerprint that gates verbatim
// reuse. CircuitVersion is the process-local build stamp at write time,
// recorded for forensics only — content addressing, not the stamp, is
// the identity.
type RunRecord struct {
	Circuit        string   `json:"circuit"`
	Heuristic      string   `json:"heuristic"`
	Criterion      string   `json:"criterion"`
	FuncHash       string   `json:"func_hash"`
	ShapeHash      string   `json:"shape_hash"`
	CircuitVersion uint64   `json:"circuit_version"`
	TotalPaths     string   `json:"total_paths"`
	Selected       int64    `json:"selected"`
	RD             string   `json:"rd"`
	Segments       int64    `json:"segments"`
	Pruned         int64    `json:"pruned"`
	Cones          int      `json:"cones"`
	ConeKeys       []string `json:"cone_keys"`
}

// ConeRecord is one output cone's complete enumeration result under one
// projected sort and criterion.
type ConeRecord struct {
	Cone       string `json:"cone"`
	TotalPaths string `json:"total_paths"`
	Selected   int64  `json:"selected"`
	RD         string `json:"rd"`
	Segments   int64  `json:"segments"`
	Pruned     int64  `json:"pruned"`
}

// GetRun looks up a whole-circuit result by RunKey.
func (s *Store) GetRun(key string) (*RunRecord, error) {
	var r RunRecord
	if err := s.get("run", key, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// PutRun persists a whole-circuit result under key.
func (s *Store) PutRun(key string, r *RunRecord) error { return s.put("run", key, r) }

// GetCone looks up one cone's result by ConeKey.
func (s *Store) GetCone(key string) (*ConeRecord, error) {
	var r ConeRecord
	if err := s.get("cone", key, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// PutCone persists one cone's result under key.
func (s *Store) PutCone(key string, r *ConeRecord) error { return s.put("cone", key, r) }
