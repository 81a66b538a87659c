package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfault/internal/faultinject"
	"rdfault/internal/seal"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.journal")
}

type notePayload struct {
	Note string `json:"note"`
	N    int    `json:"n"`
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{KindAdmit, KindLease, KindAnswer, KindSeal}
	for i, k := range kinds {
		if err := w.Append(k, notePayload{Note: k, N: i}); err != nil {
			t.Fatalf("append %s: %v", k, err)
		}
	}
	if w.Seq() != uint64(len(kinds)) {
		t.Fatalf("seq = %d, want %d", w.Seq(), len(kinds))
	}
	if w.Bytes() <= 0 {
		t.Fatalf("bytes = %d, want > 0", w.Bytes())
	}
	if st, _ := os.Stat(path); st.Size() != w.Bytes() {
		t.Fatalf("file size %d != writer bytes %d", st.Size(), w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != len(kinds) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(kinds))
	}
	for i, rec := range recs {
		if rec.Kind != kinds[i] {
			t.Fatalf("record %d kind = %q, want %q", i, rec.Kind, kinds[i])
		}
		if rec.Seq != uint64(i+1) || rec.Term != 1 || rec.Version != FormatVersion {
			t.Fatalf("record %d envelope = %+v", i, rec)
		}
	}
}

func TestAppendExistingContinuesSequence(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindAdmit, notePayload{Note: "a"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := AppendExisting(path, 2, w.Seq(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(KindTakeover, notePayload{Note: "t"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != 2 || recs[1].Seq != 2 || recs[1].Term != 2 || recs[1].Kind != KindTakeover {
		t.Fatalf("records = %+v", recs)
	}
}

func TestCorruptionFailsTypedWithOffset(t *testing.T) {
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit-flip", func(b []byte) []byte {
			// Flip a bit inside the second line's payload.
			i := 1 + indexNth(b, '\n', 0) + 20
			b[i] ^= 0x40
			return b
		}},
		{"truncated", func(b []byte) []byte {
			return b[:len(b)-7]
		}},
		{"foreign-version", func(b []byte) []byte {
			second := 1 + indexNth(b, '\n', 0)
			line := b[second : 1+indexNth(b, '\n', 1)]
			mutated := strings.Replace(string(line), FormatVersion, "rdjournal/v9", 1)
			return append(b[:second], mutated...)
		}},
		{"seq-regression", func(b []byte) []byte {
			// Duplicate the first line after itself: repeats seq 1.
			first := b[:1+indexNth(b, '\n', 0)]
			return append(append([]byte{}, first...), b...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tempJournal(t)
			w, err := Create(path, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := w.Append(KindLease, notePayload{Note: "lease-record-padding", N: i}); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(append([]byte{}, raw...)), 0o644); err != nil {
				t.Fatal(err)
			}

			recs, err := ReadFile(path)
			if err == nil {
				t.Fatalf("replay of %s journal succeeded with %d records", tc.name, len(recs))
			}
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("error %v does not wrap ErrCorruptRecord", err)
			}
			var ce *seal.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not *seal.CorruptError", err)
			}
			if ce.Path != path {
				t.Fatalf("CorruptError.Path = %q, want %q", ce.Path, path)
			}
			if ce.Offset < 0 || ce.Offset > int64(len(raw))+int64(len(raw)) {
				t.Fatalf("CorruptError.Offset = %d out of range", ce.Offset)
			}
			// The good prefix before the corruption must survive intact.
			for i, rec := range recs {
				if rec.Kind != KindLease || rec.Seq != uint64(i+1) {
					t.Fatalf("prefix record %d = %+v", i, rec)
				}
			}
		})
	}
}

func indexNth(b []byte, c byte, n int) int {
	seen := 0
	for i, x := range b {
		if x == c {
			if seen == n {
				return i
			}
			seen++
		}
	}
	return -1
}

func TestTornFinalLineWithoutNewlineStillReplays(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindAdmit, notePayload{Note: "a"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("replay = %d records, %v; want 1 record, nil", len(recs), err)
	}
}

func TestFenceStaleTermFailsTyped(t *testing.T) {
	path := tempJournal(t)
	fence := NewFence()
	term := fence.Acquire(0)
	w, err := Create(path, term, fence)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(KindAdmit, notePayload{Note: "a"}); err != nil {
		t.Fatal(err)
	}

	next := fence.Acquire(0)
	if next <= term {
		t.Fatalf("Acquire not monotone: %d then %d", term, next)
	}
	err = w.Append(KindAnswer, notePayload{Note: "late"})
	if !errors.Is(err, ErrStaleCoordinator) {
		t.Fatalf("fenced append error = %v, want ErrStaleCoordinator", err)
	}
	// The fenced append must not have written anything.
	recs, rerr := ReadFile(path)
	if rerr != nil || len(recs) != 1 {
		t.Fatalf("journal after fenced append: %d records, %v", len(recs), rerr)
	}
}

func TestFenceAcquireRespectsMin(t *testing.T) {
	f := NewFence()
	if got := f.Acquire(7); got != 7 {
		t.Fatalf("Acquire(7) = %d", got)
	}
	if got := f.Acquire(0); got != 8 {
		t.Fatalf("Acquire(0) after 7 = %d", got)
	}
	if err := f.Check(8); err != nil {
		t.Fatalf("Check(current) = %v", err)
	}
	if err := f.Check(7); !errors.Is(err, ErrStaleCoordinator) {
		t.Fatalf("Check(stale) = %v", err)
	}
}

func TestShipStaleFailsAppendOtherErrorsAreNonFatal(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var shipped, nonFatal int
	w.OnShipError = func(error) { nonFatal++ }
	w.Ship = func(term uint64, line []byte) error {
		shipped++
		if _, err := ValidateLine(line); err != nil {
			t.Fatalf("shipped line invalid: %v", err)
		}
		if term != 1 {
			t.Fatalf("shipped term = %d", term)
		}
		return errors.New("standby unreachable")
	}
	if err := w.Append(KindLease, notePayload{Note: "a"}); err != nil {
		t.Fatalf("append with partitioned standby: %v", err)
	}
	if shipped != 1 || nonFatal != 1 {
		t.Fatalf("shipped=%d nonFatal=%d", shipped, nonFatal)
	}

	w.Ship = func(uint64, []byte) error {
		return &seal.CorruptError{Kind: ErrCorruptRecord, Offset: -1, Reason: "x"} // not stale: still non-fatal
	}
	if err := w.Append(KindLease, notePayload{Note: "b"}); err != nil {
		t.Fatalf("append with corrupt-rejecting standby: %v", err)
	}

	w.Ship = func(uint64, []byte) error { return ErrStaleCoordinator }
	err = w.Append(KindAnswer, notePayload{Note: "fenced"})
	if !errors.Is(err, ErrStaleCoordinator) {
		t.Fatalf("append under fencing follower = %v, want ErrStaleCoordinator", err)
	}
}

func TestJournalLatencyInjectionFailsAppend(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointCoordJournalLatency,
		Kind:  faultinject.KindError,
		Hit:   1,
		Count: 1,
	})
	restore := faultinject.Activate(plan)
	defer restore()

	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(KindAdmit, notePayload{Note: "a"}); err == nil {
		t.Fatal("append with KindError latency rule succeeded")
	}
	if plan.Fired(faultinject.PointCoordJournalLatency) == 0 {
		t.Fatal("latency point never fired")
	}
	// Rule exhausted: next append goes through.
	if err := w.Append(KindAdmit, notePayload{Note: "b"}); err != nil {
		t.Fatalf("append after rule exhausted: %v", err)
	}
}

func TestJournalCorruptInjectionFailsReplayTyped(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointCoordJournalCorrupt,
		Kind:  faultinject.KindCorrupt,
		Hit:   2,
		Count: 1,
		Seed:  42,
	})
	restore := faultinject.Activate(plan)
	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(KindLease, notePayload{Note: "padding-for-corruption", N: i}); err != nil {
			restore()
			t.Fatal(err)
		}
	}
	w.Close()
	restore()
	if plan.Fired(faultinject.PointCoordJournalCorrupt) == 0 {
		t.Fatal("corrupt point never fired")
	}

	recs, err := ReadFile(path)
	var ce *seal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("replay of injected-corrupt journal: %d records, err %v", len(recs), err)
	}
	if len(recs) != 1 {
		t.Fatalf("good prefix = %d records, want 1", len(recs))
	}
}

// A multi-payload append writes one record per payload, with
// consecutive sequence numbers, in one write and one fsync: the
// once-per-append latency point is reached once, the shipping hook once
// per line.
func TestAppendManyPayloadsOneWrite(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointCoordJournalLatency, Kind: faultinject.KindSleep, // zero delay: counts appends
	})
	restore := faultinject.Activate(plan)
	defer restore()

	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var shipped []uint64
	w.Ship = func(_ uint64, line []byte) error {
		rec, err := ValidateLine(line)
		if err != nil {
			t.Fatalf("shipped line invalid: %v", err)
		}
		shipped = append(shipped, rec.Seq)
		return nil
	}
	if err := w.Append(KindAdmit, notePayload{Note: "admit"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindLease, notePayload{N: 0}, notePayload{N: 1}, notePayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := plan.Fired(faultinject.PointCoordJournalLatency); got != 2 {
		t.Fatalf("%d writes for 2 appends", got)
	}
	if w.Seq() != 4 || len(shipped) != 4 || shipped[3] != 4 {
		t.Fatalf("seq %d, shipped %v; want 4 records shipped one by one", w.Seq(), shipped)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 4 || int64(len(raw)) != w.Bytes() {
		t.Fatalf("%d lines, %d bytes (writer counted %d); want 4 lines", lines, len(raw), w.Bytes())
	}
	recs, err := ReadFile(path)
	if err != nil || len(recs) != 4 {
		t.Fatalf("replay = %d records, %v", len(recs), err)
	}
	for i, rec := range recs[1:] {
		var p notePayload
		if rec.Kind != KindLease || rec.Seq != uint64(i+2) || json.Unmarshal(rec.Payload, &p) != nil || p.N != i {
			t.Fatalf("record %d = %+v", i+2, rec)
		}
	}
}

// A write torn inside a multi-payload append replays the records it
// completed and fails typed at the first damaged one.
func TestTornTailInsideMultiPayloadAppend(t *testing.T) {
	path := tempJournal(t)
	w, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindAdmit, notePayload{Note: "admit"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindAnswer, notePayload{N: 0}, notePayload{N: 1}, notePayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	third := int64(1 + indexNth(raw, '\n', 2)) // the append's third record
	if err := os.WriteFile(path, raw[:third+10], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	var ce *seal.CorruptError
	if !errors.As(err, &ce) || ce.Offset != third {
		t.Fatalf("torn append replayed with %v, want a *seal.CorruptError at byte %d", err, third)
	}
	if len(recs) != 3 || recs[2].Kind != KindAnswer || recs[2].Seq != 3 {
		t.Fatalf("intact prefix = %+v, want admit and two answers", recs)
	}
}
