// Package fleet distributes RD identification across a pool of rdserved
// workers: the coordinator computes one global input sort, deals the
// output cones into one group per worker, ships the netlist and the
// sort with every dispatch, and each worker walks its group's cones in
// one output-restricted walk that answers every cone's own counters
// (which is what makes per-cone counters sum bit-identically to a
// single-process run). Dispatches are checkpoint-bounded slices over
// HTTP, and the coordinator survives worker death by reclaiming each
// group from its last streamed checkpoint.
//
// The resilience contract, enforced by the chaos suite: for any worker
// count and any schedule of kills, dropped dispatches, delayed or
// corrupted responses, the merged Selected/RD/Total/Segments counters
// are bit-identical to a clean run — a fault can cost time, never
// correctness. Zombie replies (answers arriving after the coordinator
// reassigned the group) are discarded by epoch, so every cone's result
// is accounted at most once.
package fleet

import (
	"sync"

	"rdfault/internal/faultinject"
	"rdfault/internal/telemetry"
)

// Event is one entry of the coordinator's dispatch/retry/quarantine log
// — the unified telemetry schema, so fleet events interleave with serve
// job-lifecycle events in one JSONL stream. Timestamps are stamped
// through faultinject.PointFleetClock so chaos tests can skew them.
type Event = telemetry.Event

// Event kinds. Untyped strings so they compare directly against
// telemetry.Event.Kind.
const (
	// EvDispatch: a group's slice left for a worker; Cone lists the
	// group's cones, comma-separated.
	EvDispatch = "dispatch"
	// EvSlice: a worker answered an interrupted slice with a checkpoint;
	// the group is requeued with its progress kept.
	EvSlice = "slice"
	// EvComplete: a cone's final answer was accepted.
	EvComplete = "complete"
	// EvFailure: a dispatch failed (network, saturation, corrupt
	// response); the group was reclaimed and requeued.
	EvFailure = "failure"
	// EvAbandon: a dispatch exceeded the coordinator's wait; the group's
	// epoch advanced and the group was requeued. Whatever the old
	// dispatch still returns is a zombie.
	EvAbandon = "abandon"
	// EvZombie: a reply from an abandoned dispatch arrived and was
	// discarded (at-most-once accounting).
	EvZombie = "zombie-discard"
	// EvRestart: a worker rejected the group's checkpoint (422); the
	// checkpoint was dropped and the group restarts from scratch.
	EvRestart = "checkpoint-restart"
	// EvQuarantine: a worker crossed the consecutive-failure threshold
	// and stopped taking work pending health probes.
	EvQuarantine = "quarantine"
	// EvRejoin: a quarantined worker answered a health probe and took
	// work again.
	EvRejoin = "rejoin"
	// EvDead: a quarantined worker exhausted its health probes and left
	// the pool for good.
	EvDead = "dead"
	// EvStoreHit: a cone was retired from the result store at build
	// time, without a single dispatch.
	EvStoreHit = "store.hit"
	// EvJournalSeal: the run merged and its seal record is durable in
	// the write-ahead journal.
	EvJournalSeal = "coord.journal.seal"
	// EvJournalCorrupt: a journal record failed validation during
	// recovery; everything from its byte offset on is treated as lost
	// and recomputed.
	EvJournalCorrupt = "coord.journal.corrupt"
	// EvJournalError: a journal append failed (disk, fencing aside); the
	// run aborts rather than proceed past an unjournaled side effect.
	EvJournalError = "coord.journal.error"
	// EvJournalShipError: shipping a journal record to the hot standby
	// failed (partition, standby down). Non-fatal: the primary
	// continues; a later promotion recomputes whatever the standby's
	// journal prefix is missing.
	EvJournalShipError = "coord.journal.ship-error"
	// EvJournalRetire: recovery replay retired a cone from a journaled
	// answer — no re-dispatch, no recompute.
	EvJournalRetire = "coord.journal.retire"
	// EvTakeover: a restarted or promoted coordinator took the job over
	// under a new term.
	EvTakeover = "coord.takeover"
	// EvFenced: a stale coordinator's append or merge was rejected by
	// the term fence (ErrStaleCoordinator).
	EvFenced = "coord.fenced"
	// EvKilled: a coord.kill fault-injection rule fired; the coordinator
	// aborts at the phase boundary as if the process died there.
	EvKilled = "coord.killed"
)

// eventLog collects events concurrently, optionally streams them to a
// sink and a telemetry log. The telemetry log assigns sequence numbers
// and writes the JSONL, so a coordinator sharing its log with a serve
// instance produces one totally-ordered stream.
type eventLog struct {
	mu   sync.Mutex
	list []Event
	sink func(Event)
	tl   *telemetry.Log
}

func (l *eventLog) add(kind, worker, cone, detail string, fields map[string]int64) {
	ev := Event{
		TS:     faultinject.Now(faultinject.PointFleetClock),
		Source: "fleet",
		Kind:   kind,
		Worker: worker,
		Cone:   cone,
		Detail: detail,
		Fields: fields,
	}
	ev = l.tl.Emit(ev) // nil-safe; assigns Seq and writes the JSONL line
	l.mu.Lock()
	l.list = append(l.list, ev)
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		sink(ev)
	}
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.list...)
}

// count reports how many logged events have the given kind.
func (l *eventLog) count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return telemetry.CountKind(l.list, kind)
}
