package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/fleet"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/gen"
	"rdfault/internal/seal"
	"rdfault/internal/serve"
)

// runSelftest is the crash-safety contract as a golden smoke test: a
// journaled 2-worker run on a c880-class ALU is killed mid-dispatch,
// resumed from its journal to the single-process counters, audited for
// exactly-once answers, then a corrupted copy of the journal is proven
// to fail typed and recompute to the same counters. Every printed value
// is deterministic — kill timing changes which cones need recomputing,
// never a counter digit.
func runSelftest() error {
	c := gen.ALU(8, gen.XorNAND)
	ref, err := core.Identify(c, core.Heuristic2, core.Options{})
	if err != nil {
		return err
	}
	fmt.Println("rdfleet selftest")
	fmt.Printf("circuit: %s cones=%d\n", c.Name(), len(c.Outputs()))
	fmt.Printf("reference: paths=%s selected=%d rd=%s\n", ref.TotalLogicalPaths, ref.Selected, ref.RD)

	pool, err := fleet.NewLocalPool(2, serve.Config{Workers: 1, MaxConeInFlight: 2})
	if err != nil {
		return err
	}
	defer pool.Close()
	cfg := fleet.Config{
		Transport:       &fleet.HTTPTransport{Kill: func(addr string) { pool.Kill(addr) }},
		Workers:         pool.Addrs(),
		SliceMS:         5,
		EnumWorkers:     1,
		DispatchTimeout: 30 * time.Second,
	}

	dir, err := os.MkdirTemp("", "rdfleet-selftest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "coord.journal")
	jw, err := journal.Create(path, 1, nil)
	if err != nil {
		return err
	}
	restore := faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointCoordKill + ".mid-dispatch",
		Kind:  faultinject.KindError, Hit: 1, Count: 1,
	}))
	kcfg := cfg
	kcfg.Journal = jw
	_, runErr := fleet.Run(context.Background(), kcfg, c, core.Heuristic2)
	restore()
	jw.Close()
	fmt.Printf("kill: phase=mid-dispatch typed=%v\n", errors.Is(runErr, fleet.ErrKilled))

	res, err := fleet.Resume(context.Background(), cfg, path)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	fmt.Printf("recover: match=%v paths=%s selected=%d rd=%s segments=%d\n",
		countersMatch(res, ref), res.Total, res.Selected, res.RD, res.Segments)

	audit, err := fleet.AuditJournal(path)
	if err != nil {
		return err
	}
	oncePerCone := audit.Cones > 0 && len(audit.Answers) == audit.Cones
	for _, n := range audit.Answers {
		if n != 1 {
			oncePerCone = false
		}
	}
	fmt.Printf("audit: sealed=%v answers-once-per-cone=%v unleased=%d\n",
		audit.Sealed, oncePerCone, audit.UnleasedAnswers)

	// Rot a byte in the second record of a copy: the read must fail typed
	// with the corruption's offset, and a resume must replay the valid
	// prefix and recompute the rest to the same counters.
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	second := bytes.IndexByte(raw, '\n') + 1
	if second <= 0 || second+10 >= len(raw) {
		return fmt.Errorf("selftest journal too short to corrupt (%d bytes)", len(raw))
	}
	raw[second+10] ^= 0x40
	corruptPath := filepath.Join(dir, "corrupt.journal")
	if err := os.WriteFile(corruptPath, raw, 0o644); err != nil {
		return err
	}
	var ce *seal.CorruptError
	_, rerr := journal.ReadFile(corruptPath)
	fmt.Printf("corrupt: typed=%v offset-past-admit=%v\n",
		errors.As(rerr, &ce), ce != nil && ce.Offset == int64(second))

	res2, err := fleet.Resume(context.Background(), cfg, corruptPath)
	if err != nil {
		return fmt.Errorf("resume corrupt copy: %w", err)
	}
	fmt.Printf("recompute: match=%v segments-stable=%v\n",
		countersMatch(res2, ref), res2.Segments == res.Segments)
	fmt.Println("selftest ok")
	return nil
}

func countersMatch(res *fleet.Result, ref *core.Report) bool {
	return res.Total.Cmp(ref.TotalLogicalPaths) == 0 &&
		res.Selected == ref.Selected && res.RD.Cmp(ref.RD) == 0
}
