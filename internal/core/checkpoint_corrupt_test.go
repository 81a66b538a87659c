package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfault/internal/faultinject"
	"rdfault/internal/paths"
	"rdfault/internal/seal"
)

// interruptedCheckpoint produces a genuine checkpoint with pending tasks.
func interruptedCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	c := resilienceCircuit(7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	res, err := Enumerate(c, FS, Options{
		Context: ctx,
		OnPath: func(lp paths.Logical) {
			delivered++
			if delivered == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.Pending() == 0 {
		t.Fatal("run was not interrupted with a pending frontier")
	}
	return res.Checkpoint
}

// checkCorruption asserts the seal's contract for one damaged copy of a
// checkpoint file: reading it either fails typed — a *seal.CorruptError
// naming the file that matches ErrCorruptCheckpoint, with a byte offset
// when wantOffset — or yields a checkpoint deep-equal to want. A damaged
// file that still decodes is harmless only when it decodes to what was
// written (a key whose letter case changed, since Go's JSON decoder
// reads keys case-insensitively; a cut trailing newline).
func checkCorruption(t *testing.T, path string, data []byte, want *Checkpoint, wantOffset bool) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err == nil {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: damaged checkpoint decoded to different contents (selected %d, want %d)",
				filepath.Base(path), got.Counters.Selected, want.Counters.Selected)
		}
		return
	}
	var ce *seal.CorruptError
	if !errors.Is(err, ErrCorruptCheckpoint) || !errors.As(err, &ce) {
		t.Errorf("%s: error %v is not a *seal.CorruptError matching ErrCorruptCheckpoint", filepath.Base(path), err)
		return
	}
	if ce.Path != path {
		t.Errorf("%s: error path %q, want %q", filepath.Base(path), ce.Path, path)
	}
	if wantOffset && ce.Offset < 0 {
		t.Errorf("%s: no byte offset in %v", filepath.Base(path), err)
	}
}

// encodeCheckpoint returns cp's sealed encoding and its clean decode.
func encodeCheckpoint(t *testing.T, cp *Checkpoint) ([]byte, *Checkpoint) {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	clean, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), clean
}

// TestCorruptionMatrix: every way of damaging a checkpoint file —
// truncation at any point, any single flipped byte, trailing junk,
// zeroed content, a missing seal, an empty file — must come back as a
// typed *seal.CorruptError (never a panic, never a checkpoint that
// differs from the one written), with the byte offset populated
// whenever the damage has one.
func TestCorruptionMatrix(t *testing.T) {
	valid, want := encodeCheckpoint(t, interruptedCheckpoint(t))
	dir := t.TempDir()
	check := func(name string, data []byte, wantOffset bool) {
		t.Helper()
		checkCorruption(t, filepath.Join(dir, name), data, want, wantOffset)
	}

	// Truncations across the whole file, including cutting inside the
	// tasks array and inside a number.
	for _, frac := range []int{0, 1, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		check("trunc", valid[:frac], frac > 0)
	}
	// Flip every byte: structure characters, keys, digits and the seal.
	// 0x01 turns a digit into its neighbour, 0x20 changes a letter's case
	// and 0x5a turns most bytes into syntax errors.
	for i := range valid {
		for _, mask := range []byte{0x01, 0x20, 0x5a} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= mask
			check("flip", mut, false)
		}
	}
	// The first digit of the selected counter, changed to another nonzero
	// digit: without a seal this decodes, validates and resumes to a
	// complete run with a wrong selected count, hence a wrong RD count.
	i := bytes.Index(valid, []byte(`"selected":`)) + len(`"selected":`)
	mut := append([]byte(nil), valid...)
	mut[i] = '1' + (mut[i]-'0')%9
	if _, err := DecodeCheckpoint(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("selected-digit: got %v, want ErrCorruptCheckpoint", err)
	}
	// Trailing garbage: concatenated JSON and raw junk.
	check("trail-json", append(append([]byte(nil), valid...), valid...), true)
	check("trail-junk", append(append([]byte(nil), valid...), []byte("#!garbage")...), true)
	// Content that decodes but cannot be a real checkpoint.
	check("zeroed", []byte("{}"), false)
	check("no-sum", []byte(`{"version":3,"circuit":"x","counters":{},"tasks":[]}`), false)
	check("not-json", []byte("\x00\xff\x00\xffgarbage"), true)
	for name, cp := range map[string]*Checkpoint{
		"no-circuit":  {Version: CheckpointVersion},
		"neg-counter": {Version: CheckpointVersion, Circuit: "x", Counters: CheckpointCounters{Selected: -4}},
		"neg-tally":   {Version: ConesCheckpointVersion, Circuit: "x", Tallies: []CheckpointTally{{Gate: 1, Pruned: -1}}},
	} {
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		check(name, buf.Bytes(), false)
	}
}

// TestVersionMismatchIsNotCorruption: an honest version skew — the
// unsealed versions 1 and 2 of earlier builds, or a future version —
// gets its own clear error, not the corruption sentinel.
func TestVersionMismatchIsNotCorruption(t *testing.T) {
	for _, v := range []string{"1", "2", "99"} {
		_, err := DecodeCheckpoint(bytes.NewReader([]byte(`{"version":` + v + `,"circuit":"x"}`)))
		if err == nil {
			t.Fatalf("version %s accepted", v)
		}
		if errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("version %s classified as corruption: %v", v, err)
		}
	}
}

// TestEmptyFileIsCorrupt: zero bytes must not decode into a zero-value
// checkpoint that would "resume" by walking nothing.
func TestEmptyFileIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ckpt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpointFile(path)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("empty file: got %v, want ErrCorruptCheckpoint", err)
	}
}

// TestInjectedWriteCorruptionIsCaughtOnRead: the chaos loop closes — a
// checkpoint corrupted on its way to disk (PointCheckpointBytes) is
// rejected at read time for every corruption seed, or reads back
// exactly what was written; it never resumes into other counters.
func TestInjectedWriteCorruptionIsCaughtOnRead(t *testing.T) {
	cp := interruptedCheckpoint(t)
	_, want := encodeCheckpoint(t, cp)
	path := filepath.Join(t.TempDir(), "spill.ckpt")
	for seed := int64(1); seed <= 200; seed++ {
		func() {
			defer faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
				Point: faultinject.PointCheckpointBytes,
				Kind:  faultinject.KindCorrupt,
				Seed:  seed,
			}))()
			if err := WriteCheckpointFile(path, cp); err != nil {
				t.Fatalf("seed %d: write failed: %v", seed, err)
			}
		}()
		got, err := ReadCheckpointFile(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Errorf("seed %d: corruption surfaced as %v, not ErrCorruptCheckpoint", seed, err)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: corrupted checkpoint read back with other contents (selected %d, want %d)",
				seed, got.Counters.Selected, want.Counters.Selected)
		}
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes must never panic the decoder; a
// checkpoint it accepts names its circuit, and re-encoding it decodes to
// the same sealed contents, deep-equal from then on. (The first decode
// may differ in form only: an explicit empty list where Encode omits
// one.)
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, cp := range []*Checkpoint{
		{Version: CheckpointVersion, Circuit: "x", Tasks: []CheckpointTask{}},
		{Version: CheckpointVersion, Circuit: "x", Tasks: []CheckpointTask{{IsRoot: true}}},
		{Version: ConesCheckpointVersion, Circuit: "x", Outputs: []int{3}, Tallies: []CheckpointTally{{Gate: 3, Selected: 1}}},
	} {
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"version":3,"circuit":"x","counters":{},"tasks":[]}`))
	f.Add([]byte(`{"version":3}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	roundTrip := func(t *testing.T, cp *Checkpoint) *Checkpoint {
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		return again
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cp.Circuit == "" {
			t.Fatal("decoded checkpoint bound to no circuit")
		}
		again := roundTrip(t, cp)
		if again.Sum != cp.Sum || !reflect.DeepEqual(roundTrip(t, again), again) {
			t.Fatal("re-encoding changes the checkpoint")
		}
	})
}
