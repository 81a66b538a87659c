// Package benchjson is the one schema for the benchmark JSON artifacts
// (BENCH_enumerate.json, BENCH_identify.json). The two emitters in
// bench_test.go used to carry private copies of their row structs and
// encoder plumbing; a record that two tools must agree on belongs in one
// place, versioned, with a reader that rejects what it does not
// recognize — so a dashboard reading last month's file fails loudly, not
// by misreading fields.
package benchjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Schema versions. Encode always writes the current Schema; Decode
// accepts every version listed here plus the pre-envelope legacy format
// (a bare rows array, as committed baselines from before this package
// existed still use) so dashboards and the perf-regression gate can read
// old artifacts. v2 added the paths_per_sec headline and the hot-loop
// allocation count to identify rows.
const (
	SchemaV1 = "rdfault-bench/v1"
	SchemaV2 = "rdfault-bench/v2"
	Schema   = SchemaV2
)

// Envelope wraps every benchmark artifact: a schema tag, the row kind,
// and the rows themselves (deferred so Read can check the header before
// committing to a row type).
type Envelope struct {
	Schema string          `json:"schema"`
	Kind   string          `json:"kind"`
	Rows   json.RawMessage `json:"rows"`
}

// The row kinds.
const (
	KindEnumerate = "enumerate-workers"
	KindIdentify  = "identify-cached"
)

// EnumerateRow is one worker count's measurement from
// BenchmarkEnumerateWorkers.
type EnumerateRow struct {
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_per_op"`
	PathsPerSec float64 `json:"paths_per_sec"`
	Speedup     float64 `json:"speedup_vs_serial"`
	Selected    int64   `json:"selected"`
	RD          string  `json:"rd"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
}

// IdentifyCounters is the scheduling-independent counter triple of one
// full identification pipeline (FUS, Heuristic 1, Heuristic 2).
type IdentifyCounters struct {
	Selected [3]int64  `json:"selected"`
	RD       [3]string `json:"rd"`
	Segments [3]int64  `json:"segments"`
}

// IdentifyRow is one circuit's cached-vs-uncached measurement from
// BenchmarkIdentifyCached. PathsPerSec and HotLoopAllocs are v2 fields
// (absent, i.e. zero, in v1 and legacy artifacts): the headline
// logical-paths-per-second rate of the cached pipeline (|LP(C)| divided
// by warm per-op time), and the allocations of one warm enumeration
// pass — the flat engine's assign/backtrack path contributes zero, so
// this counts only per-run envelope work (reports, counters).
type IdentifyRow struct {
	Circuit        string           `json:"circuit"`
	UncachedNsOp   int64            `json:"uncached_ns_per_op"`
	CachedNsOp     int64            `json:"cached_ns_per_op"`
	CachedColdNs   int64            `json:"cached_cold_first_op_ns"`
	Speedup        float64          `json:"speedup"`
	PathsPerSec    float64          `json:"paths_per_sec,omitempty"`
	HotLoopAllocs  uint64           `json:"hot_loop_allocs"`
	UncachedAllocs uint64           `json:"uncached_allocs_per_op"`
	CachedAllocs   uint64           `json:"cached_allocs_per_op"`
	UncachedBytes  uint64           `json:"uncached_bytes_per_op"`
	CachedBytes    uint64           `json:"cached_bytes_per_op"`
	Counters       IdentifyCounters `json:"counters"`
	// GOMAXPROCS and NumCPU record the host shape the row was measured
	// on; zero in artifacts written before they were recorded.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
}

// Encode writes rows under the versioned envelope.
func Encode(w io.Writer, kind string, rows any) error {
	raw, err := json.Marshal(rows)
	if err != nil {
		return fmt.Errorf("benchjson: %v", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Envelope{Schema: Schema, Kind: kind, Rows: raw})
}

// Decode checks the envelope's schema and kind, then unmarshals the rows
// into dst (a pointer to a row slice). Every known schema version is
// accepted. A document that is a bare JSON array is the pre-envelope
// legacy format: it carries no schema or kind header to verify, so the
// rows are unmarshaled directly — the caller's row type is the only
// check (committed baselines written before this package existed are in
// this form, and the perf-regression gate must still read them).
func Decode(r io.Reader, kind string, dst any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("benchjson: %v", err)
	}
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		if err := json.Unmarshal(t, dst); err != nil {
			return fmt.Errorf("benchjson: legacy rows: %v", err)
		}
		return nil
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("benchjson: %v", err)
	}
	switch env.Schema {
	case SchemaV2, SchemaV1:
	default:
		return fmt.Errorf("benchjson: schema %q, want %q or %q", env.Schema, SchemaV2, SchemaV1)
	}
	if env.Kind != kind {
		return fmt.Errorf("benchjson: kind %q, want %q", env.Kind, kind)
	}
	if err := json.Unmarshal(env.Rows, dst); err != nil {
		return fmt.Errorf("benchjson: rows: %v", err)
	}
	return nil
}

// WriteFile writes rows to path under the envelope.
func WriteFile(path, kind string, rows any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, kind, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads an artifact written by WriteFile.
func ReadFile(path, kind string, dst any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Decode(f, kind, dst)
}
