// The coordinator-kill chaos suite. The bar, mirroring the killed-node
// suite one layer up: for ANY phase the coordinator dies in and EITHER
// recovery mode (restart from its own journal, or hot-standby promotion
// from the shipped copy), the recovered run's merged counters are
// bit-identical to an uninterrupted run, no cone is ever merged twice
// (proven by auditing the journal's lease/answer discipline), and every
// injected journal corruption surfaces as a typed error followed by a
// correct recompute.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/gen"
	"rdfault/internal/serve"
)

// coordAudit asserts the exactly-once discipline on a sealed journal:
// every admitted cone answered exactly once, every worker answer
// covered by a journaled lease, and a seal record closing the run.
func coordAudit(t *testing.T, path string) {
	t.Helper()
	audit, err := AuditJournal(path)
	if err != nil {
		t.Fatalf("journal audit: %v", err)
	}
	if !audit.Sealed {
		t.Fatal("recovered journal has no seal record")
	}
	if audit.UnleasedAnswers != 0 {
		t.Fatalf("%d worker answers without a journaled lease", audit.UnleasedAnswers)
	}
	if audit.Cones == 0 || len(audit.Answers) != audit.Cones {
		t.Fatalf("%d cones answered, journal admitted %d", len(audit.Answers), audit.Cones)
	}
	for cone, n := range audit.Answers {
		if n != 1 {
			t.Fatalf("cone %d journaled %d answers; exactly-once broken", cone, n)
		}
	}
}

// The matrix: kill the coordinator at each phase boundary, recover by
// restart and by standby promotion, on 2- and 4-worker pools. Sixteen
// rows, one invariant: counters bit-identical, zero double merges.
func TestChaosCoordKillMatrix(t *testing.T) {
	ref := chaosRef(t)
	clean, _, _, err := chaosRun(t, 1, nil, core.Heuristic2)
	if err != nil {
		t.Fatal(err)
	}
	phases := []string{"pre-sort", "mid-dispatch", "mid-merge", "pre-seal"}
	for _, phase := range phases {
		for _, mode := range []string{"restart", "standby"} {
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%s/%dw", phase, mode, workers), func(t *testing.T) {
					c := gen.RippleAdder(4, gen.XorNAND)
					pool := newPool(t, workers)
					cfg := testConfig(pool, 5)

					dir := t.TempDir()
					path := filepath.Join(dir, "coord.journal")
					jw, err := journal.Create(path, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					var sb *Standby
					if mode == "standby" {
						sb, err = NewStandby(dir, serve.Config{Workers: 1, MaxConeInFlight: 2})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(sb.Close)
						jw.Ship = ShipHTTP(sb.Addr(), nil)
					}

					point := faultinject.PointCoordKill + "." + phase
					plan := faultinject.NewPlan(faultinject.Rule{
						Point: point, Kind: faultinject.KindError, Hit: 1, Count: 1,
					})
					restore := faultinject.Activate(plan)
					kcfg := cfg
					kcfg.Journal = jw
					_, runErr := Run(context.Background(), kcfg, c, core.Heuristic2)
					restore()
					jw.Close()
					if !errors.Is(runErr, ErrKilled) {
						t.Fatalf("primary survived the %s kill: %v", phase, runErr)
					}
					if plan.Fired(point) == 0 {
						t.Fatalf("kill rule never fired at %s", point)
					}

					// Recover: restart replays the primary's own journal;
					// promotion fences the follower lane and replays the
					// shipped copy.
					resumePath := path
					var res *Result
					var rerr error
					if mode == "standby" {
						resumePath = sb.JournalPath()
						res, rerr = sb.Promote(context.Background(), cfg)
					} else {
						res, rerr = Resume(context.Background(), cfg, resumePath)
					}
					if errors.Is(rerr, ErrNoJournaledJob) {
						// The pre-sort kill lands before admission: nothing
						// was journaled, and a fresh journaled run is the
						// documented recovery.
						if phase != "pre-sort" {
							t.Fatalf("journal empty after %s kill: %v", phase, rerr)
						}
						jw2, err := journal.Create(resumePath, 2, nil)
						if err != nil {
							t.Fatal(err)
						}
						fcfg := cfg
						fcfg.Journal = jw2
						res, rerr = Run(context.Background(), fcfg, c, core.Heuristic2)
						jw2.Close()
					} else if phase == "pre-sort" {
						t.Fatalf("pre-sort kill left a resumable journal: %v", rerr)
					}
					if rerr != nil {
						t.Fatalf("recovery failed: %v", rerr)
					}

					assertMatchesIdentify(t, res, ref)
					if res.Segments != clean.Segments {
						t.Fatalf("segments %d, clean sharded run %d", res.Segments, clean.Segments)
					}
					coordAudit(t, resumePath)
				})
			}
		}
	}
}

// A recovered run must retire every journaled answer without a single
// re-dispatch: the mid-merge kill leaves at least one sealed answer in
// the journal, and the takeover stats must show it retired.
func TestChaosCoordRecoveryRetiresJournaledAnswers(t *testing.T) {
	ref := chaosRef(t)
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, 4)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "coord.journal")
	jw, err := journal.Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Four workers deal the five cones into four groups. Die on the third
	// group merge: two groups are already answered in the journal, and
	// the answers that triggered the kill are journaled too.
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointCoordKill + ".mid-merge",
		Kind:  faultinject.KindError, Hit: 3, Count: 1,
	})
	restore := faultinject.Activate(plan)
	kcfg := cfg
	kcfg.Journal = jw
	_, runErr := Run(context.Background(), kcfg, c, core.Heuristic2)
	restore()
	jw.Close()
	if !errors.Is(runErr, ErrKilled) || plan.Fired(faultinject.PointCoordKill+".mid-merge") != 1 {
		t.Fatalf("primary survived: %v", runErr)
	}

	res, err := Resume(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentify(t, res, ref)
	if res.Stats.JournalRetired < 3 {
		t.Fatalf("takeover retired %d cones from the journal, want >= 3", res.Stats.JournalRetired)
	}
	var retireEvents, takeovers int
	for _, ev := range res.Events {
		switch ev.Kind {
		case EvJournalRetire:
			retireEvents++
		case EvTakeover:
			takeovers++
		}
	}
	if int64(retireEvents) != res.Stats.JournalRetired {
		t.Fatalf("%d retire events, stats say %d", retireEvents, res.Stats.JournalRetired)
	}
	if takeovers != 1 {
		t.Fatalf("%d takeover events, want 1", takeovers)
	}
	coordAudit(t, path)
}

// Injected journal corruption: the write path rots a record in place
// (the primary never notices), recovery surfaces a typed *CorruptError
// with the byte offset, replays the valid prefix, truncates the rotten
// tail, and recomputes everything the tail covered — counters
// bit-identical.
func TestChaosCoordCorruptJournalRecoversByRecompute(t *testing.T) {
	ref := chaosRef(t)
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)
	path := filepath.Join(t.TempDir(), "coord.journal")
	jw, err := journal.Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointCoordJournalCorrupt,
		Kind:  faultinject.KindCorrupt, Hit: 4, Count: 1, Seed: 7,
	})
	restore := faultinject.Activate(plan)
	kcfg := cfg
	kcfg.Journal = jw
	_, runErr := Run(context.Background(), kcfg, c, core.Heuristic2)
	restore()
	jw.Close()
	if runErr != nil {
		t.Fatalf("write-path corruption is silent; run failed: %v", runErr)
	}
	if plan.Fired(faultinject.PointCoordJournalCorrupt) == 0 {
		t.Fatal("corrupt rule never fired")
	}

	_, rerr := journal.ReadFile(path)
	var ce *journal.CorruptError
	if !errors.As(rerr, &ce) {
		t.Fatalf("corrupt journal read %v, want *journal.CorruptError", rerr)
	}
	if ce.Offset <= 0 {
		t.Fatalf("corruption offset %d; record 4 sits past the admit record", ce.Offset)
	}

	res, err := Resume(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("recovery from corrupt journal: %v", err)
	}
	assertMatchesIdentify(t, res, ref)
	var sawCorrupt bool
	for _, ev := range res.Events {
		if ev.Kind == EvJournalCorrupt {
			sawCorrupt = true
			if ev.Fields["offset"] != ce.Offset {
				t.Fatalf("event offset %d, typed error offset %d", ev.Fields["offset"], ce.Offset)
			}
		}
	}
	if !sawCorrupt {
		t.Fatal("recovered run emitted no coord.journal.corrupt event")
	}
	coordAudit(t, path)
}

// The zombie-primary scenario, end to end over the wire: the standby is
// promoted while the primary is alive and mid-run. The primary's next
// shipment hits the raised term floor, comes back 409, and its run dies
// typed with ErrStaleCoordinator — its late answers never reach the
// follower journal, so the promoted run's counters carry no drift.
func TestChaosCoordZombiePrimaryIsFencedOverTheWire(t *testing.T) {
	ref := chaosRef(t)
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)

	dir := t.TempDir()
	jw, err := journal.Create(filepath.Join(dir, "primary.journal"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(dir, serve.Config{Workers: 1, MaxConeInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sb.Close)
	jw.Ship = ShipHTTP(sb.Addr(), nil)

	// Depose the primary the moment its first cone completes: the fence
	// lands synchronously in the event sink, so the very next append's
	// shipment — at latest, the seal — is rejected.
	var deposed sync.Once
	var fencedEvents atomic.Int64
	pcfg := cfg
	pcfg.Journal = jw
	pcfg.OnEvent = func(ev Event) {
		switch ev.Kind {
		case EvComplete:
			deposed.Do(func() { sb.FenceLane() })
		case EvFenced:
			fencedEvents.Add(1)
		}
	}
	_, runErr := Run(context.Background(), pcfg, c, core.Heuristic2)
	jw.Close()
	if !errors.Is(runErr, ErrStaleCoordinator) {
		t.Fatalf("deposed primary died with %v, want ErrStaleCoordinator", runErr)
	}
	if fencedEvents.Load() == 0 {
		t.Fatal("no coord.fenced event from the deposed primary")
	}

	res, err := sb.Promote(context.Background(), cfg)
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	assertMatchesIdentify(t, res, ref)
	if res.Stats.Fenced != 0 {
		t.Fatalf("promoted run counted %d fenced appends of its own", res.Stats.Fenced)
	}
	coordAudit(t, sb.JournalPath())
}

// A partitioned standby must never stall the primary: every shipment is
// dropped, the run completes on the primary's own journal, and each
// drop is reported through the ship-error path.
func TestChaosCoordStandbyPartitionDoesNotStallPrimary(t *testing.T) {
	ref := chaosRef(t)
	c := gen.RippleAdder(4, gen.XorNAND)
	pool := newPool(t, 2)
	cfg := testConfig(pool, 5)

	dir := t.TempDir()
	path := filepath.Join(dir, "primary.journal")
	jw, err := journal.Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(dir, serve.Config{Workers: 1, MaxConeInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sb.Close)
	jw.Ship = ShipHTTP(sb.Addr(), nil)
	var dropped atomic.Int64
	jw.OnShipError = func(error) { dropped.Add(1) }

	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointStandbyPartition, Kind: faultinject.KindError,
	})
	restore := faultinject.Activate(plan)
	kcfg := cfg
	kcfg.Journal = jw
	res, runErr := Run(context.Background(), kcfg, c, core.Heuristic2)
	restore()
	jw.Close()
	if runErr != nil {
		t.Fatalf("partitioned standby stalled the primary: %v", runErr)
	}
	assertMatchesIdentify(t, res, ref)
	if dropped.Load() == 0 {
		t.Fatal("partition dropped no shipments; the rule tested nothing")
	}
	// The primary's own journal is whole: a restart recovers from it even
	// though the standby saw nothing.
	coordAudit(t, path)
	if info := AuditOrZero(t, sb.JournalPath()); info != 0 {
		t.Fatalf("partitioned standby received %d records", info)
	}
}

// AuditOrZero counts the records in a journal that may be empty.
func AuditOrZero(t *testing.T, path string) int {
	t.Helper()
	audit, err := AuditJournal(path)
	if err != nil {
		t.Fatalf("audit %s: %v", path, err)
	}
	return audit.Records
}
