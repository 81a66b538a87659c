package fleet

import (
	"encoding/json"

	"rdfault/internal/serve"
)

// Journal payload schemas — what each journal.Kind* record carries.
// These are the coordinator's durable state: recovery rebuilds every
// job from an admit record plus the answer/slice/epoch records that
// follow it, consulting nothing else. Lease, epoch and answer records
// are per cone; a group's records of one kind go in one append. Fields
// are versioned only by the journal's format stamp; additive evolution
// is fine (unknown payload fields are ignored on replay), renames are
// not.

// admitCone is one cone of the admitted job: its name and store key.
// A cone is addressed by its index, which is its position in the
// circuit's output list.
type admitCone struct {
	Name string `json:"name"`
	// StoreKey addresses the cone in the result store ("" without one).
	StoreKey string `json:"store_key,omitempty"`
}

// admitRecord journals job admission: the circuit, heuristic,
// criterion, slicing policy, the netlist and global sort every dispatch
// ships, and every cone. Written first, before any dispatch; a journal
// without one holds no resumable job. Recovery never has to re-read the
// circuit or recompute the sort.
type admitRecord struct {
	Circuit   string `json:"circuit"`
	Heuristic string `json:"heuristic"`
	Criterion string `json:"criterion"`
	SliceMS   int64  `json:"slice_ms,omitempty"`
	// Bench is the circuit's netlist in bench format.
	Bench string `json:"bench"`
	// Sort is the global input sort keyed by gate name (nil for the FS
	// criterion, which needs none).
	Sort  map[string][]int `json:"sort,omitempty"`
	Cones []admitCone      `json:"cones"`
}

// leaseRecord journals cone ownership: worker, epoch and deadline,
// flushed before the dispatch leaves the coordinator. Replay uses the
// epochs as a floor (a recovered coordinator starts every unfinished
// cone above its highest journaled epoch, so in-flight replies from the
// previous life are provably stale) and the audit uses the
// (cone, epoch) pairs to prove every merged answer had a lease.
type leaseRecord struct {
	Cone       int    `json:"cone"`
	Name       string `json:"name"`
	Worker     string `json:"worker"`
	Epoch      uint64 `json:"epoch"`
	DeadlineMS int64  `json:"deadline_ms"`
}

// sliceRecord journals an interrupted slice's checkpoint, flushed
// before the coordinator adopts it. It is the one record that names a
// group, because one checkpoint covers the walk of all its cones:
// recovery resumes the group from its last journaled checkpoint, instead
// of from scratch, when none of its cones has an answer.
type sliceRecord struct {
	Cones      []int           `json:"cones"`
	Epoch      uint64          `json:"epoch"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// epochRecord journals an epoch bump (an abandoned dispatch). The bump
// is applied in memory before it is journaled — epochs only gate
// liveness within one coordinator life, and recovery re-bumps past the
// journaled maximum anyway, so a crash between bump and append cannot
// admit a zombie.
type epochRecord struct {
	Cone  int    `json:"cone"`
	Epoch uint64 `json:"epoch"`
}

// answerRecord journals an accepted complete ConeAnswer, flushed before
// the cone is marked done. Source distinguishes a worker's computed
// answer from one retired out of the result store; both are sealed, so
// replay re-verifies the checksum before trusting either.
type answerRecord struct {
	Cone   int               `json:"cone"`
	Name   string            `json:"name"`
	Epoch  uint64            `json:"epoch"`
	Source string            `json:"source"`
	Worker string            `json:"worker,omitempty"`
	Answer *serve.ConeAnswer `json:"answer"`
}

// answerSourceWorker / answerSourceStore are answerRecord.Source values.
const (
	answerSourceWorker = "worker"
	answerSourceStore  = "store"
)

// sealRecord journals the merged run: the journal's own record that the
// job finished and what the counters were. A resumed sealed journal
// merges straight from its answer records and must reproduce these
// numbers bit-identically.
type sealRecord struct {
	Circuit    string `json:"circuit"`
	TotalPaths string `json:"total_paths"`
	Selected   int64  `json:"selected"`
	RD         string `json:"rd"`
	Segments   int64  `json:"segments"`
	Pruned     int64  `json:"pruned"`
	Cones      int    `json:"cones"`
}

// takeoverRecord journals a recovery: which term took over, why, and
// how much of the job the journal had already retired.
type takeoverRecord struct {
	Term    uint64 `json:"term"`
	Reason  string `json:"reason"`
	Retired int    `json:"retired"`
	Pending int    `json:"pending"`
}

// shutdownRecord journals a graceful interrupt: the journal is sealed
// for resumption, not abandoned.
type shutdownRecord struct {
	Reason string `json:"reason"`
}
