// Command rdeco is the ECO-workload driver: RD identification served
// through the content-addressed result store. The first run of a
// circuit populates the store; any later run of the same circuit —
// byte-identical or merely isomorphic (relabeled) — is a pure store
// hit with zero enumeration work, and a revised circuit is identified
// incrementally, re-enumerating only the output cones the revision
// touched. Results persist on disk, so the warm path survives process
// restarts and is shared by every tool pointing at the same -store
// directory (rdeco, rdserved, rdfleet).
//
// Usage:
//
//	rdeco -store /var/lib/rdstore -bench chip.bench            # cold, populates
//	rdeco -store /var/lib/rdstore -bench chip_v2.bench         # warm, delta
//	rdeco -store /var/lib/rdstore -example -edit 2 -seed 7     # demo: k-cone ECO
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rdfault"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/loader"
	"rdfault/internal/store"
	"rdfault/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "rdeco: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rdeco", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir  = fs.String("store", "", "result store directory (required; created if absent)")
		benchFile = fs.String("bench", "", "read circuit from a netlist file (.bench, .v or .pla)")
		example   = fs.Bool("example", false, "run on the paper's example circuit")
		heuristic = fs.String("heuristic", "heu1", "fus|heu1|heu2|inverse|pin")
		workers   = fs.Int("workers", 0, "enumeration goroutines per cone (0 = serial)")
		edit      = fs.Int("edit", 0, "demo mode: also run a synthetic ECO revision editing k output cones")
		seed      = fs.Int64("seed", 1, "seed for -edit's mutation draw")
		events    = fs.Bool("events", false, "stream store events (hit/miss/delta/corrupt) to stderr as JSONL")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		fs.Usage()
		return fmt.Errorf("need -store")
	}
	c, err := loadCircuit(*benchFile, *example)
	if err != nil {
		return err
	}
	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	if *events {
		st.SetTelemetry(telemetry.NewLog(stderr))
	}
	opt := store.Options{Heuristic: h, Workers: *workers}

	res, err := store.IdentifyThrough(st, c, opt)
	if err != nil {
		return err
	}
	printResult(stdout, res)

	if *edit > 0 {
		revised, edits, err := store.MutateKCones(c, *edit, *seed)
		if err != nil {
			return err
		}
		var desc []string
		for _, e := range edits {
			desc = append(desc, fmt.Sprintf("cone %d: %v", e.ConeIdx, e.Kind))
		}
		fmt.Fprintf(stdout, "\neco edits:  %s\n", strings.Join(desc, ", "))
		eco, err := store.IdentifyThrough(st, revised, opt)
		if err != nil {
			return err
		}
		printResult(stdout, eco)
	}
	return nil
}

func printResult(w io.Writer, res *store.Result) {
	fmt.Fprintf(w, "circuit:    %s (%d cones)\n", res.Circuit, res.Cones)
	fmt.Fprintf(w, "heuristic:  %s  criterion: %s\n", res.Heuristic, res.Criterion)
	fmt.Fprintf(w, "outcome:    %s (reused %d cones, re-identified %d, %d segments walked)\n",
		res.Outcome, res.ReusedCones, res.FreshCones, res.EnumeratedSegments)
	if res.CorruptEntries > 0 {
		fmt.Fprintf(w, "corrupt:    %d store entries failed validation and were recomputed\n", res.CorruptEntries)
	}
	fmt.Fprintf(w, "paths:      %s\n", res.TotalStr)
	fmt.Fprintf(w, "selected:   %d\n", res.Selected)
	fmt.Fprintf(w, "rd:         %s (%.2f%%)\n", res.RDStr, res.RDPercent())
	fmt.Fprintf(w, "segments:   %d  pruned: %d\n", res.Segments, res.Pruned)
	fmt.Fprintf(w, "duration:   %s\n", res.Duration.Round(time.Millisecond))
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
