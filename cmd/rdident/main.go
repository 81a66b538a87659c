// Command rdident identifies robust dependent path delay faults in a
// circuit, printing Table I / Table II style rows.
//
// Usage:
//
//	rdident -bench file.bench [-heuristic heu2] [-limit N]
//	rdident -suite iscas      # the generated ISCAS85-analogue suite
//	rdident -example          # the paper's running example circuit
//
// Long runs are interruptible: -timeout bounds the wall clock (per
// circuit in suite mode), ^C cancels gracefully, and -checkpoint/-resume
// save and continue an interrupted enumeration with bit-identical final
// counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"rdfault"
	"rdfault/internal/cliutil"
	"rdfault/internal/core"
	"rdfault/internal/exp"
	"rdfault/internal/gen"
	"rdfault/internal/loader"
)

func main() {
	var (
		benchFile = flag.String("bench", "", "read circuit from a netlist file (.bench, .v or .pla)")
		suite     = flag.String("suite", "", "run a generated suite: 'iscas'")
		example   = flag.Bool("example", false, "run on the paper's example circuit")
		heuristic = flag.String("heuristic", "all", "fus|heu1|heu2|inverse|pin|all")
		limit     = flag.Int64("limit", 0, "abort after this many selected paths (0 = unlimited)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel enumeration goroutines (counts are identical for any value)")
		cert      = flag.Bool("cert", false, "print the prime-segment RD certificate (Heuristic 2 sort)")
	)
	rf := cliutil.Register()
	pf := cliutil.RegisterProfile()
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	ctx, stop := rf.SignalContext()
	defer stop()

	switch {
	case *suite == "iscas":
		rf.WarnCheckpointUnused("rdident", "suite mode quarantines over-budget circuits instead")
		rows, quarantined, err := exp.RunISCAS(gen.ISCAS85Suite(), exp.SuiteOptions{
			Workers:           *workers,
			PerCircuitTimeout: rf.Timeout,
			Context:           ctx,
		})
		if err != nil && !cliutil.IsGracefulStop(err) {
			fatal(err)
		}
		exp.FprintTableI(os.Stdout, rows)
		fmt.Println()
		exp.FprintTableII(os.Stdout, rows)
		exp.FprintQuarantine(os.Stdout, quarantined)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdident: suite canceled; tables above cover the finished circuits")
		}
		return
	case *suite != "":
		fatal(fmt.Errorf("unknown suite %q (want 'iscas')", *suite))
	}

	var c *rdfault.Circuit
	switch {
	case *example:
		c = rdfault.PaperExample()
	case *benchFile != "":
		parsed, err := loader.Load(*benchFile)
		if err != nil {
			fatal(err)
		}
		c = parsed
	default:
		flag.Usage()
		os.Exit(2)
	}

	hs := []rdfault.Heuristic{rdfault.HeuristicFUS, rdfault.Heuristic1, rdfault.Heuristic2, rdfault.Heuristic2Inverse}
	if *heuristic != "all" {
		h, err := core.ParseHeuristic(*heuristic)
		if err != nil {
			fatal(err)
		}
		hs = []rdfault.Heuristic{h}
	}
	if rf.ResumePath != "" && len(hs) != 1 {
		fatal(fmt.Errorf("-resume needs a single -heuristic (a checkpoint is bound to one criterion and sort)"))
	}
	for _, h := range hs {
		opt := rdfault.Options{Limit: *limit, Workers: *workers}
		if err := rf.Apply(ctx, &opt); err != nil {
			fatal(err)
		}
		rep, err := rdfault.Identify(c, h, opt)
		if err != nil {
			if cliutil.IsGracefulStop(err) {
				fmt.Fprintf(os.Stderr, "rdident: %s interrupted before enumeration started (no partial state to save)\n", h)
				return
			}
			fatal(err)
		}
		fmt.Println(rep)
		if !rep.Complete {
			fmt.Printf("  (selected is a lower bound: >=%d paths survive; RD unknown)\n", rep.Selected)
		}
		if rf.HandleInterrupted("rdident", rep.Final) {
			return
		}
	}
	if *cert {
		s2, _, _, err := rdfault.Heuristic2Sort(c)
		if err != nil {
			fatal(err)
		}
		certificate, err := rdfault.CollectRDSegments(c, s2, rdfault.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nRD certificate: %d prime segments cover %v RD paths\n",
			len(certificate.Segments), certificate.CoveredTotal)
		for i, seg := range certificate.Segments {
			if i == 20 {
				fmt.Printf("  ... and %d more segments\n", len(certificate.Segments)-20)
				break
			}
			fmt.Printf("  %s\n", seg.String(c))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdident:", err)
	os.Exit(1)
}
