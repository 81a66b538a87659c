package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"rdfault/internal/seal"
)

// FuzzJournalReplay feeds arbitrary bytes to Replay and holds the
// corruption contract: Replay never panics, never returns an error
// other than *seal.CorruptError, and every record it does return
// validates on its own — a corrupt journal yields a good prefix plus a
// typed offset, nothing else.
func FuzzJournalReplay(f *testing.F) {
	w, err := Create(f.TempDir()+"/seed.journal", 3, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, kind := range []string{KindAdmit, KindLease, KindAnswer, KindSeal} {
		// Leases and answers go in as a group's multi-payload append.
		if err := w.Append(kind, map[string]int{"n": i}, map[string]int{"n": i + 10}); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	seed, err := os.ReadFile(w.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"v":"rdjournal/v2","seq":1,"term":1,"kind":"admit","sum":"bad"}` + "\n"))
	f.Add(append(seed[:len(seed)/2], "garbage{{{"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Replay(bytes.NewReader(data))
		if err != nil {
			var ce *seal.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Replay error %T (%v) is not *seal.CorruptError", err, err)
			}
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Replay error %v does not wrap ErrCorruptRecord", err)
			}
			if ce.Offset < 0 || ce.Offset > int64(len(data)) {
				t.Fatalf("CorruptError.Offset %d outside [0, %d]", ce.Offset, len(data))
			}
		}
		lastSeq := uint64(0)
		for i, rec := range recs {
			if rec.Version != FormatVersion {
				t.Fatalf("record %d version %q", i, rec.Version)
			}
			if rec.Seq <= lastSeq {
				t.Fatalf("record %d seq %d after %d", i, rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateLine(line); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
	})
}
