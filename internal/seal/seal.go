// Package seal is the one integrity discipline every persisted or
// transmitted record shares: a single checksum, a single corrupt-record
// error, and a single atomic file writer.
//
// Four formats carry the seal: the core checkpoint, rdstore/v1 entries,
// rdjournal/v2 records and the serve lane's ConeAnswer. Each format
// decides which bytes it sums — its canonical JSON with the sum field
// cleared, or (store entries) the payload bytes — and reports a failed
// check as a *CorruptError whose Kind is the format's own sentinel, so
// callers keep matching core.ErrCorruptCheckpoint, store.ErrCorruptEntry
// or journal.ErrCorruptRecord with errors.Is.
package seal

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Sum is the record checksum: FNV-1a (64-bit) over b, as 16 hex digits.
func Sum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// JSON is Sum over v's JSON encoding: the seal of a record that carries
// its own sum, computed over the record with that field cleared. A value
// that cannot be encoded yields a sum no record can match.
func JSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable"
	}
	return Sum(b)
}

// CorruptError reports one record that failed its seal or could not be
// decoded: what failed, where, and why. A corrupt record is never
// returned as usable data — the caller gets this error or a valid
// record, nothing in between.
type CorruptError struct {
	// Kind is what failed: the sentinel of the record's format, which
	// errors.Is matches.
	Kind error
	// Path is the file read ("" for stream decodes and network replies).
	Path string
	// Offset is the byte offset of the damage; -1 when it is unknowable
	// (an empty file, a record-level check).
	Offset int64
	// Reason says what was wrong.
	Reason string
}

// Error renders the corruption report.
func (e *CorruptError) Error() string {
	s := e.Kind.Error()
	if e.Path != "" {
		s += " " + e.Path
	}
	if e.Offset >= 0 {
		s += fmt.Sprintf(" at byte %d", e.Offset)
	}
	return s + ": " + e.Reason
}

// Unwrap matches errors.Is(err, e.Kind).
func (e *CorruptError) Unwrap() error { return e.Kind }

// WriteFile stores data at path atomically: it creates the directory,
// writes a temp file beside path and renames it into place, so a reader
// sees the old file or the new one, never a torn write. The file is not
// fsynced; a sealed record that a crash tears fails its check on read.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
