package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rdfault/internal/seal"
)

// ValidateLine decodes and validates one journal line (no trailing
// newline): envelope shape, format version, checksum. It does not check
// sequence continuity — that is Replay's job, which sees the whole
// stream.
func ValidateLine(line []byte) (Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, fmt.Errorf("envelope: %v", err)
	}
	if dec.More() {
		return Record{}, fmt.Errorf("envelope: trailing data after record")
	}
	if rec.Version != FormatVersion {
		return Record{}, fmt.Errorf("format version %q, want %q", rec.Version, FormatVersion)
	}
	if rec.Kind == "" {
		return Record{}, fmt.Errorf("empty record kind")
	}
	unsealed := rec
	unsealed.Sum = ""
	if want := seal.JSON(unsealed); rec.Sum != want {
		return Record{}, fmt.Errorf("checksum %q, computed %q", rec.Sum, want)
	}
	return rec, nil
}

// Replay reads journal records in order until EOF or the first
// unusable record. It returns every valid record before the failure;
// on corruption the error is a *seal.CorruptError whose Offset is the
// byte position where the bad record starts, so the caller can truncate
// the tail and recompute what the lost records covered. Sequence numbers
// must be strictly increasing (terms may repeat or grow across
// takeovers); a gap or repeat marks the record corrupt — it belongs to
// a write the previous coordinator never acknowledged.
func Replay(r io.Reader) ([]Record, error) {
	return replay(r, "")
}

// replay is Replay naming path in its errors.
func replay(r io.Reader, path string) ([]Record, error) {
	corrupt := func(off int64, reason string) error {
		return &seal.CorruptError{Kind: ErrCorruptRecord, Path: path, Offset: off, Reason: reason}
	}
	br := bufio.NewReaderSize(r, 1<<20)
	var (
		recs    []Record
		offset  int64
		lastSeq uint64
	)
	for {
		line, err := readLine(br)
		if len(line) == 0 && err == io.EOF {
			return recs, nil
		}
		if err != nil && err != io.EOF {
			return recs, corrupt(offset, fmt.Sprintf("read: %v", err))
		}
		// A final line without a trailing newline is a torn write: the
		// coordinator died mid-append. If it still validates, keep it —
		// the bytes are all there; only the newline is missing.
		rec, verr := ValidateLine(bytes.TrimSuffix(line, []byte("\n")))
		if verr != nil {
			return recs, corrupt(offset, verr.Error())
		}
		if rec.Seq <= lastSeq {
			return recs, corrupt(offset, fmt.Sprintf("sequence %d after %d", rec.Seq, lastSeq))
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		offset += int64(len(line))
		if err == io.EOF {
			return recs, nil
		}
	}
}

// readLine reads through the next '\n' (inclusive) without a length
// cap — journal records carry whole cone netlists and can exceed any
// fixed scanner buffer.
func readLine(br *bufio.Reader) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		return buf, err
	}
}

// ReadFile replays the journal at path; a *seal.CorruptError names it.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	return replay(f, path)
}
