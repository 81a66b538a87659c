package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"rdfault/internal/core"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/seal"
	"rdfault/internal/serve"
)

// ErrNoJournaledJob: the journal has no (valid) admit record, so there
// is nothing to resume — either the coordinator died pre-admission or
// the corruption ate the admit record. The operator falls back to a
// fresh run.
var ErrNoJournaledJob = errors.New("fleet: journal holds no admitted job")

// journalState is what replaying a journal yields: the admitted job,
// the per-cone high-water marks of everything that happened to it, and
// the group checkpoints in journal order.
type journalState struct {
	admit     *admitRecord
	answers   map[int]*serve.ConeAnswer
	answerSrc map[int]string
	slices    []sliceRecord
	epochs    map[int]uint64
	sealed    bool
	maxSeq    uint64
	maxTerm   uint64
}

// replayJournal folds validated records into recovery state. Records
// with unparsable payloads are skipped, not fatal: losing a lease or
// slice record degrades to a recompute, never a wrong merge. Answers
// are re-verified (seal checksum) and first-wins — a second answer for
// a cone could only come from a coordinator that failed between append
// and merge-mark, and both describe the same enumeration.
func replayJournal(recs []journal.Record) *journalState {
	st := &journalState{
		answers:   map[int]*serve.ConeAnswer{},
		answerSrc: map[int]string{},
		epochs:    map[int]uint64{},
	}
	for _, rec := range recs {
		if rec.Seq > st.maxSeq {
			st.maxSeq = rec.Seq
		}
		if rec.Term > st.maxTerm {
			st.maxTerm = rec.Term
		}
		switch rec.Kind {
		case journal.KindAdmit:
			var ar admitRecord
			if json.Unmarshal(rec.Payload, &ar) == nil {
				st.admit = &ar
			}
		case journal.KindLease:
			var lr leaseRecord
			if json.Unmarshal(rec.Payload, &lr) == nil && lr.Epoch > st.epochs[lr.Cone] {
				st.epochs[lr.Cone] = lr.Epoch
			}
		case journal.KindEpoch:
			var er epochRecord
			if json.Unmarshal(rec.Payload, &er) == nil && er.Epoch > st.epochs[er.Cone] {
				st.epochs[er.Cone] = er.Epoch
			}
		case journal.KindSlice:
			var sr sliceRecord
			if json.Unmarshal(rec.Payload, &sr) == nil && len(sr.Checkpoint) > 0 && len(sr.Cones) > 0 {
				st.slices = append(st.slices, sr)
			}
		case journal.KindAnswer:
			var ar answerRecord
			if json.Unmarshal(rec.Payload, &ar) != nil || ar.Answer == nil {
				continue
			}
			if !ar.Answer.Verify() {
				continue // rotted in place; recompute the cone instead
			}
			if _, seen := st.answers[ar.Cone]; !seen {
				st.answers[ar.Cone] = ar.Answer
				st.answerSrc[ar.Cone] = ar.Source
			}
		case journal.KindSeal:
			st.sealed = true
		}
	}
	return st
}

// Resume rebuilds a run from its write-ahead journal and drives it to
// completion — the recovery path for both a restarted coordinator and a
// promoted standby. Only unretired cones are re-dispatched: cones with
// a journaled answer merge as-is, a journaled group checkpoint resumes
// when none of its group's cones has an answer, every other pending
// cone is dealt into a fresh group, and the merged counters are
// bit-identical to an uninterrupted run.
//
// A corrupt journal is replayed up to the corruption (typed
// *seal.CorruptError, coord.journal.corrupt event), the rotten tail
// is truncated, and everything it covered is recomputed. A journal with
// no admit record fails typed with ErrNoJournaledJob.
//
// Resume appends to the journal under the next term (past every term
// seen in the file, and acquired on cfg.Fence when set), so the
// previous coordinator — if it is somehow still alive — is fenced from
// the moment Resume opens the file.
func Resume(ctx context.Context, cfg Config, path string) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, errors.New("fleet: no transport")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	if cfg.Journal != nil {
		return nil, errors.New("fleet: Resume opens its own journal writer; Config.Journal must be nil")
	}
	start := time.Now()

	recs, rerr := journal.ReadFile(path)
	var corrupt *seal.CorruptError
	if rerr != nil {
		if !errors.As(rerr, &corrupt) {
			return nil, rerr
		}
		// Drop the rotten tail so our own appends continue a clean file.
		// The records it held are recomputed below.
		if err := os.Truncate(path, corrupt.Offset); err != nil {
			return nil, fmt.Errorf("fleet: truncate corrupt journal tail: %w", err)
		}
	}
	st := replayJournal(recs)
	if st.admit == nil {
		if corrupt != nil {
			return nil, fmt.Errorf("%w: %w", ErrNoJournaledJob, corrupt)
		}
		return nil, fmt.Errorf("%w: %s", ErrNoJournaledJob, path)
	}
	criterion, err := core.ParseCriterion(st.admit.Criterion)
	if err != nil {
		return nil, fmt.Errorf("fleet: journaled %v", err)
	}

	term := st.maxTerm + 1
	if cfg.Fence != nil {
		term = cfg.Fence.Acquire(term)
	}
	jw, err := journal.AppendExisting(path, term, st.maxSeq, cfg.Fence)
	if err != nil {
		return nil, err
	}
	defer jw.Close()
	cfg.Journal = jw

	jobs := make([]*job, len(st.admit.Cones))
	retired, storeHits := 0, int64(0)
	var storeAnswers []any
	for i, ac := range st.admit.Cones {
		j := &job{idx: i, name: ac.Name, storeKey: ac.StoreKey}
		switch {
		case st.answers[i] != nil:
			j.done = true
			j.final = st.answers[i]
			retired++
		case cfg.Store != nil && ac.StoreKey != "":
			if ans := storedConeAnswer(cfg.Store, ac.StoreKey, ac.Name, criterion); ans != nil {
				j.done = true
				j.final = ans
				storeHits++
				storeAnswers = append(storeAnswers, answerRecord{
					Cone: i, Name: ac.Name, Source: answerSourceStore, Answer: ans,
				})
			}
		}
		jobs[i] = j
	}
	groups := resumeGroups(jobs, st, len(cfg.Workers))

	co := newCoordinator(cfg, criterion.String(), runMeta{circuit: st.admit.Circuit, heuristic: st.admit.Heuristic},
		st.admit.Bench, st.admit.Sort, jobs)
	co.stats.retired.Store(int64(retired))
	co.stats.storeHits.Store(storeHits)
	if co.metrics != nil {
		co.metrics.Takeovers.Inc()
	}

	if corrupt != nil {
		co.events.add(EvJournalCorrupt, "", "", corrupt.Error(),
			map[string]int64{"offset": corrupt.Offset})
	}
	reason := "restart"
	if st.sealed {
		reason = "sealed"
	}
	pending := len(jobs) - retired - int(storeHits)
	co.events.add(EvTakeover, "", "", reason, map[string]int64{
		"term":    int64(term),
		"retired": int64(retired),
		"pending": int64(pending),
	})
	for _, j := range jobs {
		if j.done && st.answers[j.idx] != nil {
			co.events.add(EvJournalRetire, "", j.name, st.answerSrc[j.idx],
				map[string]int64{"selected": j.final.Selected, "segments": j.final.Segments})
		}
	}
	if err := jw.Append(journal.KindTakeover, takeoverRecord{
		Term: term, Reason: reason, Retired: retired, Pending: pending,
	}); err != nil {
		return nil, fmt.Errorf("fleet: journal takeover: %w", err)
	}
	if len(storeAnswers) > 0 {
		if err := jw.Append(journal.KindAnswer, storeAnswers...); err != nil {
			return nil, fmt.Errorf("fleet: journal takeover: %w", err)
		}
	}
	if co.metrics != nil {
		co.metrics.JournalBytes.Set(jw.Bytes())
	}
	return co.run(ctx, start, groups)
}

// resumeGroups rebuilds the pending cones' groups: the latest journaled
// checkpoint of a group none of whose cones is retired resumes that
// group, and every other pending cone is dealt into a fresh group. Each
// group starts strictly above every epoch journaled for its cones, so
// any reply still in flight from the previous coordinator's dispatches
// is provably stale here too.
func resumeGroups(jobs []*job, st *journalState, workers int) []*group {
	claimed := make([]bool, len(jobs))
	var groups []*group
	for k := len(st.slices) - 1; k >= 0; k-- {
		sr := st.slices[k]
		usable := true
		for n, i := range sr.Cones {
			if i < 0 || i >= len(jobs) || jobs[i].done || claimed[i] || slices.Contains(sr.Cones[:n], i) {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		members := make([]*job, len(sr.Cones))
		for n, i := range sr.Cones {
			members[n] = jobs[i]
			claimed[i] = true
		}
		g := newGroup(members)
		g.checkpoint = sr.Checkpoint
		groups = append(groups, g)
	}
	var rest []*job
	for i, j := range jobs {
		if !j.done && !claimed[i] {
			rest = append(rest, j)
		}
	}
	groups = append(groups, deal(rest, workers)...)
	for _, g := range groups {
		for _, j := range g.jobs {
			g.epoch = max(g.epoch, st.epochs[j.idx]+1)
		}
	}
	return groups
}

// JournalAudit is what AuditJournal proves about a finished journal:
// exactly-once accounting, visible in the records themselves.
type JournalAudit struct {
	// Records is the total validated record count.
	Records int
	// Cones is the admitted cone count.
	Cones int
	// Answers counts journaled answers per cone index. Exactly one per
	// cone in any recovered run — two would mean a double merge.
	Answers map[int]int
	// UnleasedAnswers counts worker-sourced answers with no prior
	// journaled lease for the same cone and epoch. Zero in any run:
	// every computed answer had a journaled owner.
	UnleasedAnswers int
	// Sealed reports whether a seal record closed the run.
	Sealed bool
}

// AuditJournal replays a journal and checks the lease/answer discipline
// the chaos suite asserts on: each cone answered exactly once, every
// worker answer covered by a journaled lease.
func AuditJournal(path string) (*JournalAudit, error) {
	recs, err := journal.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type lease struct {
		cone  int
		epoch uint64
	}
	leased := map[lease]bool{}
	audit := &JournalAudit{Records: len(recs), Answers: map[int]int{}}
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindAdmit:
			var ar admitRecord
			if json.Unmarshal(rec.Payload, &ar) == nil {
				audit.Cones = len(ar.Cones)
			}
		case journal.KindLease:
			var lr leaseRecord
			if json.Unmarshal(rec.Payload, &lr) == nil {
				leased[lease{lr.Cone, lr.Epoch}] = true
			}
		case journal.KindAnswer:
			var ar answerRecord
			if err := json.Unmarshal(rec.Payload, &ar); err != nil {
				return nil, fmt.Errorf("fleet: audit: answer record: %w", err)
			}
			audit.Answers[ar.Cone]++
			if ar.Source == answerSourceWorker && !leased[lease{ar.Cone, ar.Epoch}] {
				audit.UnleasedAnswers++
			}
		case journal.KindSeal:
			audit.Sealed = true
		}
	}
	return audit, nil
}
