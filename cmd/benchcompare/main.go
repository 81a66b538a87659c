// Command benchcompare is the CI perf-regression gate for the
// identification benchmark: it compares a freshly generated
// BENCH_identify.json against a committed baseline and exits nonzero if
// any circuit's cached speedup or paths/sec throughput regressed beyond
// the tolerance. The baseline may be in any artifact version the
// benchjson reader understands (v2, v1 envelope, or the pre-envelope
// bare rows array); metrics the baseline lacks (paths_per_sec in legacy
// files) are skipped rather than failed, so the gate tightens itself as
// newer baselines are committed.
//
// Usage:
//
//	benchcompare -baseline BENCH_identify.json -current BENCH_identify.new.json
//
// The tolerance is a ratio: with -tolerance 0.85 (the default), the gate
// fails when current speedup < 0.85 * baseline speedup for any circuit.
// Absolute ns/op is deliberately not gated — wall-clock shifts with the
// host, while speedup and paths/sec are ratios of runs on the same host.
// Even those ratios move with the host's core count, so a row whose
// baseline and current both record a host shape (gomaxprocs, num_cpu)
// fails the gate as incomparable when the shapes differ; a baseline
// without a shape is compared as before.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rdfault/internal/benchjson"
)

func main() {
	if code := run(os.Args[1:], os.Stdout, os.Stderr); code != 0 {
		os.Exit(code)
	}
}

// run is the command with its exit status returned: 0 when the gate
// passes, 1 on a regression or incomparable host shape, 2 on bad usage
// or unreadable artifacts.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_identify.json", "committed baseline artifact")
		currentPath  = fs.String("current", "", "freshly generated artifact to gate (required)")
		tolerance    = fs.Float64("tolerance", 0.85, "minimum allowed current/baseline ratio per metric")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *currentPath == "" {
		fmt.Fprintln(stderr, "benchcompare: -current is required")
		return 2
	}
	if *tolerance <= 0 || *tolerance > 1 {
		fmt.Fprintln(stderr, "benchcompare: -tolerance must be in (0, 1]")
		return 2
	}

	var base, cur []benchjson.IdentifyRow
	if err := benchjson.ReadFile(*baselinePath, benchjson.KindIdentify, &base); err != nil {
		fmt.Fprintf(stderr, "benchcompare: baseline: %v\n", err)
		return 2
	}
	if err := benchjson.ReadFile(*currentPath, benchjson.KindIdentify, &cur); err != nil {
		fmt.Fprintf(stderr, "benchcompare: current: %v\n", err)
		return 2
	}

	failures := compare(stdout, base, cur, *tolerance)
	if failures > 0 {
		fmt.Fprintf(stderr, "benchcompare: %d gate failure(s): regression beyond tolerance %.2f, missing circuit or incomparable host shape\n",
			failures, *tolerance)
		return 1
	}
	fmt.Fprintf(stdout, "benchcompare: no regressions (tolerance %.2f)\n", *tolerance)
	return 0
}

// compare prints a per-circuit table and returns the number of gate
// failures: regressed metrics, missing circuits and rows measured on a
// different host shape than their baseline. A circuit present only in
// one artifact fails: silently dropping a suite member must not pass
// the gate. A row from another host shape fails because its ratios say
// nothing about the code.
func compare(w io.Writer, base, cur []benchjson.IdentifyRow, tol float64) int {
	curBy := make(map[string]benchjson.IdentifyRow, len(cur))
	for _, r := range cur {
		curBy[r.Circuit] = r
	}
	regressions := 0
	fmt.Fprintf(w, "%-8s  %22s  %26s\n", "circuit", "speedup base -> cur", "paths/sec base -> cur")
	for _, b := range base {
		c, ok := curBy[b.Circuit]
		if !ok {
			fmt.Fprintf(w, "%-8s  MISSING from current artifact\n", b.Circuit)
			regressions++
			continue
		}
		delete(curBy, b.Circuit)

		if b.NumCPU > 0 && c.NumCPU > 0 && (b.GOMAXPROCS != c.GOMAXPROCS || b.NumCPU != c.NumCPU) {
			fmt.Fprintf(w, "%-8s  incomparable host shape: baseline gomaxprocs=%d num_cpu=%d, current gomaxprocs=%d num_cpu=%d\n",
				b.Circuit, b.GOMAXPROCS, b.NumCPU, c.GOMAXPROCS, c.NumCPU)
			regressions++
			continue
		}

		spOK := c.Speedup >= tol*b.Speedup
		line := fmt.Sprintf("%-8s  %8.2fx -> %8.2fx", b.Circuit, b.Speedup, c.Speedup)
		if !spOK {
			line += " REGRESSED"
			regressions++
		}
		if b.PathsPerSec > 0 {
			ppsOK := c.PathsPerSec >= tol*b.PathsPerSec
			line += fmt.Sprintf("  %10.3g -> %10.3g", b.PathsPerSec, c.PathsPerSec)
			if !ppsOK {
				line += " REGRESSED"
				regressions++
			}
		} else {
			line += "  (baseline lacks paths/sec; skipped)"
		}
		fmt.Fprintln(w, line)
	}
	for name := range curBy {
		// New circuits are fine — they just aren't gated yet.
		fmt.Fprintf(w, "%-8s  new circuit (no baseline)\n", name)
	}
	return regressions
}
