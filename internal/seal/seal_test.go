package seal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var errKind = errors.New("test: corrupt record")

func TestCorruptErrorMatchesKind(t *testing.T) {
	for _, tc := range []struct {
		err  *CorruptError
		want string
	}{
		{&CorruptError{Kind: errKind, Path: "/d/r.json", Offset: 12, Reason: "bad"}, "test: corrupt record /d/r.json at byte 12: bad"},
		{&CorruptError{Kind: errKind, Offset: -1, Reason: "bad"}, "test: corrupt record: bad"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
		if !errors.Is(tc.err, errKind) {
			t.Errorf("%v does not match its kind", tc.err)
		}
	}
}

// WriteFile creates missing directories, replaces an existing file
// whole and leaves no temp file behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a", "b", "rec.json")
	for _, data := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read %q, %v; want %q", got, err, data)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the record", len(entries), err)
	}
}

func TestSumIsStable(t *testing.T) {
	// FNV-1a 64 of the empty input is the offset basis: the store,
	// journal and cone-answer sums written by earlier builds depend on
	// the algorithm staying put.
	if got := Sum(nil); got != "cbf29ce484222325" {
		t.Fatalf("Sum(nil) = %s", got)
	}
	if JSON(map[string]int{"a": 1}) != Sum([]byte(`{"a":1}`)) {
		t.Fatal("JSON does not sum the value's encoding")
	}
}
