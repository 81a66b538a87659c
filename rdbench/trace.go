package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Spans of one
// job share Job; Parent is the enclosing span's ID (0 for a job's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: every method is a no-op that costs one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its ID; end closes it.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// selfTimes sums each span name's self time — its duration minus the
// part its children cover — and counts its spans.
func (t *tracer) selfTimes() (total map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		total[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
		count[s.Name]++
	}
	return total, count
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
