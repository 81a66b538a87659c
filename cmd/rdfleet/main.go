// Command rdfleet distributes RD identification across a pool of
// rdserved workers. The input sort is computed once globally, the
// output cones are dealt into one group per worker, each worker walks
// its group under the global sort, and the per-cone answers are merged
// in deterministic cone order — so the
// merged Selected/RD/Total counters are bit-identical to a
// single-process rdident run at any worker count, under worker kills,
// dropped dispatches, corrupt responses and zombie replies (see
// internal/fleet and its chaos suite).
//
// Usage:
//
//	rdfleet -example -local 4                 # 4 in-process loopback workers
//	rdfleet -bench file.bench -workers host:a,host:b
//	rdfleet -example -local 2 -slice 50 -events
//	rdfleet -example -local 2 -journal /var/lib/rdfleet   # crash-safe coordinator
//	rdfleet -resume-journal /var/lib/rdfleet/rdfleet.journal -local 2
//	rdfleet -selftest                         # kill/recover round trip, exit
//
// With -journal, every admission, lease, checkpoint, answer and the
// final seal is fsynced to a write-ahead journal before its side
// effect; a killed coordinator (or its hot standby, fed over -standby)
// resumes with -resume-journal and reproduces the exact counters of the
// uninterrupted run, re-dispatching only unfinished cones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rdfault"
	"rdfault/internal/circuit"
	"rdfault/internal/cliutil"
	"rdfault/internal/core"
	"rdfault/internal/fleet"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/loader"
	"rdfault/internal/retry"
	"rdfault/internal/serve"
	"rdfault/internal/store"
	"rdfault/internal/telemetry"
)

func main() {
	var (
		benchFile = flag.String("bench", "", "read circuit from a netlist file (.bench, .v or .pla)")
		example   = flag.Bool("example", false, "run on the paper's example circuit")
		heuristic = flag.String("heuristic", "heu2", "fus|heu1|heu2|inverse|pin")
		local     = flag.Int("local", 0, "spawn N in-process rdserved workers on loopback")
		workers   = flag.String("workers", "", "comma-separated rdserved worker addresses (host:port,...)")
		sliceMS   = flag.Int64("slice", 0, "per-dispatch slice budget in ms; workers stream checkpoints back (0 = whole groups)")
		enum      = flag.Int("enum-workers", runtime.GOMAXPROCS(0), "enumeration goroutines per dispatched slice")
		dispatch  = flag.Duration("dispatch-timeout", 60*time.Second, "abandon a dispatch after this long (the reply is discarded as a zombie)")
		failures  = flag.Int("fail-threshold", 3, "consecutive failures that quarantine a worker")
		budget    = flag.Int64("budget", 256<<20, "per-local-worker memory budget in bytes")
		drain     = flag.Duration("drain", 10*time.Second, "graceful drain deadline for local workers on exit")
		events    = flag.Bool("events", false, "stream the coordinator's event log to stderr as JSONL (the unified telemetry schema)")
		storeDir  = flag.String("store", "", "content-addressed result store directory: cones with stored answers are retired without dispatching, fresh answers are written back")
		jdir      = flag.String("journal", "", "write-ahead journal directory: every coordinator decision is fsynced before its side effect, so a killed run resumes with -resume-journal")
		standby   = flag.String("standby", "", "hot-standby address (an rdserved with -follow-journal): each journal record is shipped to its follower lane as it is appended (requires -journal)")
		resumeAt  = flag.String("resume-journal", "", "resume a killed coordinator's run from this write-ahead journal file")
		selftest  = flag.Bool("selftest", false, "run a deterministic kill/recover/corrupt round trip on a generated circuit, exit")
	)
	flag.Parse()
	if *selftest {
		if err := runSelftest(); err != nil {
			fatal(err)
		}
		return
	}
	ctx, stop := (&cliutil.Flags{}).SignalContext()
	defer stop()

	// A resume rebuilds circuit and heuristic from the journal; a netlist
	// on the command line is only the fallback for an empty journal.
	var (
		c   *circuit.Circuit
		h   rdfault.Heuristic
		err error
	)
	if *resumeAt == "" || *benchFile != "" || *example {
		c, err = loadCircuit(*benchFile, *example)
		if err != nil {
			fatal(err)
		}
		h, err = core.ParseHeuristic(*heuristic)
		if err != nil {
			fatal(err)
		}
	}

	cfg := fleet.Config{
		SliceMS:         *sliceMS,
		EnumWorkers:     *enum,
		DispatchTimeout: *dispatch,
		FailThreshold:   *failures,
	}
	if *events {
		// Live JSONL as the run happens, not a post-mortem dump: one line
		// per event in the same schema every layer uses.
		cfg.Telemetry = telemetry.NewLog(os.Stderr)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = st
		if cfg.Telemetry != nil {
			st.SetTelemetry(cfg.Telemetry)
		}
	}
	tr := &fleet.HTTPTransport{}
	cfg.Transport = tr

	switch {
	case *local > 0 && *workers != "":
		fatal(fmt.Errorf("-local and -workers are mutually exclusive"))
	case *local > 0:
		pool, err := fleet.NewLocalPool(*local, serve.Config{
			Workers:         runtime.GOMAXPROCS(0),
			MemoryBudget:    *budget,
			MaxConeInFlight: 2,
		})
		if err != nil {
			fatal(err)
		}
		defer pool.Drain(*drain)
		cfg.Workers = pool.Addrs()
		fmt.Fprintf(os.Stderr, "rdfleet: %d local workers on %s\n", *local, strings.Join(cfg.Workers, " "))
	case *workers != "":
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Workers = append(cfg.Workers, w)
			}
		}
		// Remote pools ride over real networks; give the breaker more
		// patience than the loopback default.
		cfg.Backoff = retry.Policy{Base: 100 * time.Millisecond, Cap: 2 * time.Second}
		cfg.Probe = retry.Policy{Attempts: 8, Base: 250 * time.Millisecond, Cap: 5 * time.Second}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *standby != "" && *jdir == "" && *resumeAt == "" {
		fatal(fmt.Errorf("-standby requires -journal"))
	}
	var (
		jw          *journal.Writer
		journalPath string
	)
	if *resumeAt != "" {
		journalPath = *resumeAt
	} else if *jdir != "" {
		if err := os.MkdirAll(*jdir, 0o755); err != nil {
			fatal(err)
		}
		journalPath = filepath.Join(*jdir, "rdfleet.journal")
		jw, err = journal.Create(journalPath, 1, nil)
		if err != nil {
			fatal(err)
		}
		defer jw.Close()
		if *standby != "" {
			jw.Ship = fleet.ShipHTTP(*standby, nil)
			jw.OnShipError = func(err error) {
				fmt.Fprintf(os.Stderr, "rdfleet: journal ship: %v\n", err)
			}
		}
		cfg.Journal = jw
	}

	var res *fleet.Result
	if *resumeAt != "" {
		res, err = fleet.Resume(ctx, cfg, *resumeAt)
		if errors.Is(err, fleet.ErrNoJournaledJob) && c != nil {
			// Nothing usable in the journal: start the job fresh, journaled
			// onto the same path so the NEXT crash resumes.
			fmt.Fprintf(os.Stderr, "rdfleet: %v; starting fresh\n", err)
			jw, err = journal.Create(*resumeAt, 1, nil)
			if err != nil {
				fatal(err)
			}
			defer jw.Close()
			cfg.Journal = jw
			res, err = fleet.Run(ctx, cfg, c, h)
		}
	} else {
		res, err = fleet.Run(ctx, cfg, c, h)
	}
	if err != nil {
		// ^C lands here as a graceful stop: the journal already holds every
		// lease, checkpoint and answer (each was fsynced before its side
		// effect), so seal it with a shutdown record and hand the operator
		// the resume line. A second ^C force-exits from the cliutil signal
		// watcher regardless of what this path is doing.
		if cliutil.IsGracefulStop(err) && journalPath != "" {
			if jw != nil {
				jw.Append(journal.KindShutdown, struct {
					Reason string `json:"reason"`
				}{"signal"})
			}
			fmt.Fprintf(os.Stderr, "rdfleet: interrupted; in-flight progress is journaled\n")
			fmt.Fprintf(os.Stderr, "rdfleet: resume with: rdfleet -resume-journal %s -workers <pool>\n", journalPath)
		}
		fatal(err)
	}
	if jw != nil {
		fmt.Fprintf(os.Stderr, "rdfleet: journal %s (%d records, %d bytes)\n",
			journalPath, jw.Seq(), jw.Bytes())
	}
	printResult(res)
}

func loadCircuit(benchFile string, example bool) (*circuit.Circuit, error) {
	switch {
	case example:
		return rdfault.PaperExample(), nil
	case benchFile != "":
		return loader.Load(benchFile)
	}
	return nil, fmt.Errorf("need -bench or -example")
}

func printResult(res *fleet.Result) {
	fmt.Printf("circuit:   %s (%d cones)\n", res.Circuit, res.Stats.Cones)
	fmt.Printf("heuristic: %s  criterion: %s\n", res.Heuristic, res.Criterion)
	fmt.Printf("paths:     %s\n", res.Total)
	fmt.Printf("selected:  %d\n", res.Selected)
	fmt.Printf("rd:        %s (%.2f%%)\n", res.RD, core.RDPercent(res.RD, res.Total))
	fmt.Printf("segments:  %d  pruned: %d\n", res.Segments, res.Pruned)
	fmt.Printf("stats:     dispatches=%d slices=%d failures=%d abandoned=%d zombies=%d restarts=%d quarantines=%d rejoins=%d dead=%d store_hits=%d journal_retired=%d fenced=%d\n",
		res.Stats.Dispatches, res.Stats.Slices, res.Stats.Failures, res.Stats.Abandoned,
		res.Stats.ZombieDiscards, res.Stats.Restarts, res.Stats.Quarantines, res.Stats.Rejoins,
		res.Stats.DeadWorkers, res.Stats.StoreHits, res.Stats.JournalRetired, res.Stats.Fenced)
	fmt.Printf("duration:  %s\n", res.Duration.Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rdfleet: %v\n", err)
	os.Exit(1)
}
