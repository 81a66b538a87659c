package core

import (
	"sync"
	"sync/atomic"
)

// paddedInt64 is an atomic counter padded to its own cache line so
// concurrently publishing walkers never false-share.
type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// Progress is a point-in-time snapshot of one enumeration's counters —
// the paper's Table I quantities (selected paths, DFS segments walked,
// prunes, SAT rejects) observable while the walk is still running
// instead of only after it finishes.
//
// Snapshots are monotone within a pass and eventually exact: while
// walkers run, a snapshot folds per-worker shards that are published at
// cancellation-poll granularity (so it may trail the true counts by up
// to pollEvery extensions per worker); once the pass ends, Final is
// true and the snapshot equals the pass's Result counters bit-exactly.
type Progress struct {
	Selected   int64 `json:"selected"`
	Segments   int64 `json:"segments"`
	Pruned     int64 `json:"pruned"`
	SATRejects int64 `json:"sat_rejects,omitempty"`
	// Final is true once the enumeration pass has ended; the counters
	// are then the pass's exact Result counters (baseline included).
	Final bool `json:"final"`
}

// progressShard is one walker's published counters. Walkers own plain
// int64 counters on the hot path and copy them into their shard with
// atomic stores only at task boundaries and every pollEvery
// cancellation checks — the DFS inner loop gains no atomics and no
// allocations. The padding keeps two walkers' shards off one cache
// line.
type progressShard struct {
	selected   paddedInt64
	segments   paddedInt64
	pruned     paddedInt64
	satRejects paddedInt64
}

// Tracker collects live Progress for one enumeration pass (or a chain
// of passes: each Enumerate call on the same tracker rebases it).
// Create one with NewTracker, hand it to Options.Progress, and call
// Snapshot from any goroutine.
type Tracker struct {
	mu       sync.Mutex
	shards   []*progressShard
	baseline Progress  // checkpoint counters the pass resumed from
	final    *Progress // set when the pass ends; nil while running
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// begin rebases the tracker for a new enumeration pass: the shard list
// resets (walkers of the new pass register fresh shards) and baseline
// carries the checkpoint counters the pass resumes from.
func (t *Tracker) begin(baseline Progress) {
	t.mu.Lock()
	t.shards = t.shards[:0]
	t.baseline = baseline
	t.final = nil
	t.mu.Unlock()
}

// newShard registers one walker's publication slot.
func (t *Tracker) newShard() *progressShard {
	s := &progressShard{}
	t.mu.Lock()
	t.shards = append(t.shards, s)
	t.mu.Unlock()
	return s
}

// Freeze ends the tracker's pass on exact final counters: every later
// Snapshot returns p, marked Final. Enumerate freezes its tracker
// itself; a caller that answers without enumerating (a result-store
// hit) freezes it on the counters it served.
func (t *Tracker) Freeze(p Progress) {
	p.Final = true
	t.mu.Lock()
	t.final = &p
	t.mu.Unlock()
}

// Snapshot folds the live shards (plus the resume baseline) into one
// consistent-enough view: each shard is read atomically, so every
// counter is a value some walker actually published, and once the pass
// ends the snapshot is exact and Final. A nil tracker snapshots zero.
func (t *Tracker) Snapshot() Progress {
	if t == nil {
		return Progress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.final != nil {
		return *t.final
	}
	p := t.baseline
	for _, s := range t.shards {
		p.Selected += s.selected.Load()
		p.Segments += s.segments.Load()
		p.Pruned += s.pruned.Load()
		p.SATRejects += s.satRejects.Load()
	}
	return p
}

// publish copies the walker's plain counters into its shard; called at
// task boundaries and on the pollEvery cadence, never per extension.
func (w *walker) publish() {
	if w.prog == nil {
		return
	}
	w.prog.selected.Store(w.selected)
	w.prog.segments.Store(w.segments)
	w.prog.pruned.Store(w.pruned)
	w.prog.satRejects.Store(w.satRejects)
}

// progressOf extracts a Result's counters as a Progress value.
func progressOf(res *Result) Progress {
	return Progress{
		Selected:   res.Selected,
		Segments:   res.Segments,
		Pruned:     res.Pruned,
		SATRejects: res.SATRejects,
	}
}
