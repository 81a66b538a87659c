// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VI). Run all of them with
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the measured rows next to the paper's published
// values on its first iteration; EXPERIMENTS.md archives one full run.
package rdfault

import (
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/benchjson"
	"rdfault/internal/exp"
	"rdfault/internal/gen"
	"rdfault/internal/paths"
	"rdfault/internal/store"
)

// BenchmarkTableI regenerates Table I: the percentage of logical paths
// identified robust dependent by the FUS baseline, Heuristic 1,
// Heuristic 2 and the inverse-sort control, on the ISCAS85-analogue
// suite.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.RunISCAS(gen.ISCAS85Suite(), exp.SuiteOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println()
			exp.FprintTableI(os.Stdout, rows)
			avg := 0.0
			for _, r := range rows {
				avg += r.Heu2 - r.Heu1
			}
			avg /= float64(len(rows))
			fmt.Printf("average Heu2-Heu1 improvement: %.2f%% (paper: 2.51%%)\n", avg)
			b.ReportMetric(avg, "Heu2-Heu1-%")
		}
	}
}

// BenchmarkTableII regenerates Table II: total logical path counts and
// the running times of Heuristic 1 vs Heuristic 2 (the paper's factor-3
// relation: Heu2 executes the enumeration three times).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.RunISCAS(gen.ISCAS85Suite(), exp.SuiteOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println()
			exp.FprintTableII(os.Stdout, rows)
			ratio := 0.0
			for _, r := range rows {
				ratio += float64(r.TimeHeu2) / float64(r.TimeHeu1)
			}
			ratio /= float64(len(rows))
			fmt.Printf("average Heu2/Heu1 time ratio: %.1fx (paper: ~3x or more)\n", ratio)
			b.ReportMetric(ratio, "Heu2/Heu1-time")
		}
	}
}

// BenchmarkTableIII regenerates Table III: the leaf-dag unfolding
// approach of Lam et al. [1] against Heuristic 2 on synthesized
// MCNC-analogue two-level benchmarks — quality and running time.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.RunMCNC(gen.MCNCSuite(), exp.SuiteOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println()
			exp.FprintTableIII(os.Stdout, rows)
			gap := exp.QualityGap(rows)
			fmt.Printf("average RD shortfall of Heuristic 2 vs [1]: %.2f%% (paper: 2.05%%)\n", gap)
			b.ReportMetric(gap, "quality-gap-%")
		}
	}
}

// BenchmarkFigures regenerates Figures 1-5 and Examples 1-4 on the
// reconstructed running example circuit.
func BenchmarkFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		if _, err := exp.RunFigures(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeedup regenerates the Section VI running-time anchor: the
// unfolding approach against Heuristic 2 on a growing SEC-decoder family
// (the c499-like structure for which [1] ran >69 hours while Heuristic 2
// needed under 4 minutes). The largest size blows the unfolding's node
// cap — the "did not finish" regime.
func BenchmarkSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		rows, err := exp.RunSpeedup(w, []int{4, 6, 8, 10, 12, 14, 20}, 400_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-2] // largest completed size
			b.ReportMetric(last.Speedup(), "speedup-x")
		}
	}
}

// BenchmarkAblations measures the design choices DESIGN.md calls out:
// prime-segment pruning, the local-implication approximation gap, and
// the value of input sorting.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		if _, err := exp.RunAblations(w, []int64{1, 2, 3, 4, 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalityGap measures the two quality losses of the fast
// algorithm on tiny circuits where the unrestricted optimum is computable
// exhaustively: the sort-induced search-space restriction and the
// local-implication approximation.
func BenchmarkOptimalityGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		if _, err := exp.RunOptimalityGap(w, []int64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedundancySweep runs the redundancy-sweep ablation: how much
// of the identified RD-set is explained by functional redundancy that an
// idealized synthesis step would remove.
func BenchmarkRedundancySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		if _, err := exp.RunRedundancySweep(w, []int64{1, 2, 3, 4, 5, 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortComparison runs the extension experiment: the SCOAP
// testability-driven input sort against pin order and the paper's two
// heuristics, on the smaller half of the ISCAS85-analogue suite.
func BenchmarkSortComparison(b *testing.B) {
	var small []gen.Named
	for _, nc := range gen.ISCAS85Suite() {
		switch nc.Paper {
		case "c432", "c880", "c499", "c5315":
			small = append(small, nc)
		}
	}
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		if _, err := exp.RunSortComparison(w, small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateWorkers measures work-stealing enumeration throughput
// on the suite's largest circuit (the c3540 analogue, 84M logical paths)
// at 1/2/4/8 workers, reporting paths/sec, and writes the rows to
// BENCH_enumerate.json. The Selected and RD counts are asserted identical
// across worker counts — the scheduling-independence guarantee.
func BenchmarkEnumerateWorkers(b *testing.B) {
	c := gen.BCDALU(4, gen.XorNAND) // c3540 analogue
	total, _ := new(big.Float).SetInt(CountPaths(c)).Float64()
	var rows []benchjson.EnumerateRow
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Enumerate(c, FS, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := b.Elapsed().Nanoseconds() / int64(b.N)
			pps := total / (float64(nsPerOp) / 1e9)
			b.ReportMetric(pps, "paths/sec")
			rows = append(rows, benchjson.EnumerateRow{
				Workers:     workers,
				NsPerOp:     nsPerOp,
				PathsPerSec: pps,
				Selected:    res.Selected,
				RD:          res.RD.String(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				NumCPU:      runtime.NumCPU(),
			})
		})
	}
	if len(rows) == 0 {
		return
	}
	for i := range rows {
		rows[i].Speedup = float64(rows[0].NsPerOp) / float64(rows[i].NsPerOp)
		if rows[i].Selected != rows[0].Selected || rows[i].RD != rows[0].RD {
			b.Fatalf("workers=%d: Selected/RD (%d, %s) differ from serial (%d, %s)",
				rows[i].Workers, rows[i].Selected, rows[i].RD, rows[0].Selected, rows[0].RD)
		}
	}
	if err := benchjson.WriteFile("BENCH_enumerate.json", benchjson.KindEnumerate, rows); err != nil {
		b.Fatal(err)
	}
	fmt.Println("wrote BENCH_enumerate.json")
}

// BenchmarkIdentifyCached measures what the analysis manager buys: the
// full identification pipeline (FUS, then Heuristic 1, then Heuristic 2
// on the same circuit) with the shared analysis cache against the
// recompute-everywhere baseline, on the smaller half of the
// ISCAS85-analogue suite. Per-op wall clock and allocations are written
// to BENCH_identify.json; the Selected/RD/Segments counters are asserted
// byte-identical between the two modes (at 1 and 4 workers) — caching
// must change cost, never results.
func BenchmarkIdentifyCached(b *testing.B) {
	var suite []gen.Named
	for _, nc := range gen.ISCAS85Suite() {
		switch nc.Paper {
		case "c432", "c880", "c499", "c5315":
			suite = append(suite, nc)
		}
	}
	heuristics := []Heuristic{HeuristicFUS, Heuristic1, Heuristic2}

	pipeline := func(c *Circuit, workers int) benchjson.IdentifyCounters {
		var ct benchjson.IdentifyCounters
		for i, h := range heuristics {
			rep, err := Identify(c, h, Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			ct.Selected[i] = rep.Selected
			ct.RD[i] = rep.RD.String()
			ct.Segments[i] = rep.Final.Segments
		}
		return ct
	}
	// measure runs the pipeline n times and reports per-op nanoseconds,
	// allocation count and allocated bytes (monotonic counters; no forced
	// GC needed).
	measure := func(c *Circuit, n int) (nsOp int64, allocsOp, bytesOp uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pipeline(c, 1)
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		un := uint64(n)
		return elapsed.Nanoseconds() / int64(n),
			(after.Mallocs - before.Mallocs) / un,
			(after.TotalAlloc - before.TotalAlloc) / un
	}

	var rows []benchjson.IdentifyRow
	for _, nc := range suite {
		nc := nc
		b.Run(nc.Paper, func(b *testing.B) {
			analysis.Reset()

			// Baseline: every call site re-derives its analyses.
			prev := analysis.SetEnabled(false)
			base := pipeline(nc.C, 1)
			base4 := pipeline(nc.C, 4)
			unNs, unAllocs, unBytes := measure(nc.C, b.N)
			analysis.SetEnabled(prev)

			// Cached: one cold op populates the registry (counts, sorts,
			// Algorithm 3 passes), then b.N warm ops are served from it.
			analysis.Reset()
			t0 := time.Now()
			warm := pipeline(nc.C, 1)
			coldNs := time.Since(t0).Nanoseconds()
			warm4 := pipeline(nc.C, 4)
			caNs, caAllocs, caBytes := measure(nc.C, b.N)

			if warm != base || warm4 != base4 || warm != warm4 {
				b.Fatalf("%s: cached counters diverge from baseline:\ncached   %+v\nuncached %+v",
					nc.Paper, warm, base)
			}

			// Headline throughput: logical paths covered per second of warm
			// pipeline time. Hot-loop allocations: one warm single-worker
			// enumeration pass (Heuristic 2, the deepest one) on the shared
			// analyses — the flat engine's assign/backtrack path is
			// allocation-free, so this counts only per-run envelope work.
			total, _ := new(big.Float).SetInt(CountPaths(nc.C)).Float64()
			pps := total / (float64(caNs) / 1e9)
			var hb, ha runtime.MemStats
			runtime.ReadMemStats(&hb)
			if _, err := Identify(nc.C, Heuristic2, Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&ha)

			b.ReportMetric(float64(unNs)/float64(caNs), "speedup")
			b.ReportMetric(pps, "paths/sec")
			rows = append(rows, benchjson.IdentifyRow{
				Circuit:        nc.Paper,
				UncachedNsOp:   unNs,
				CachedNsOp:     caNs,
				CachedColdNs:   coldNs,
				Speedup:        float64(unNs) / float64(caNs),
				PathsPerSec:    pps,
				HotLoopAllocs:  ha.Mallocs - hb.Mallocs,
				UncachedAllocs: unAllocs,
				CachedAllocs:   caAllocs,
				UncachedBytes:  unBytes,
				CachedBytes:    caBytes,
				Counters:       warm,
				GOMAXPROCS:     runtime.GOMAXPROCS(0),
				NumCPU:         runtime.NumCPU(),
			})
			analysis.Reset()
		})
	}
	// The store-hit row: the same three-heuristic pipeline served through
	// the content-addressed result store. Uncached is the cold populating
	// run, cached is the warm pure-hit path (stored counters, zero
	// enumeration) — the ECO-workload headline number. Selected/RD are
	// asserted against the direct pipeline; Segments is the store's
	// cone-sharded work sum, identical between cold and warm by the ECO
	// equivalence suite.
	b.Run("c880-store-hit", func(b *testing.B) {
		var c880 *Circuit
		for _, nc := range gen.ISCAS85Suite() {
			if nc.Paper == "c880" {
				c880 = nc.C
			}
		}
		st, err := store.Open(filepath.Join(b.TempDir(), "rdstore"))
		if err != nil {
			b.Fatal(err)
		}
		storePipeline := func(wantHit bool) benchjson.IdentifyCounters {
			var ct benchjson.IdentifyCounters
			for i, h := range heuristics {
				res, err := store.IdentifyThrough(st, c880, store.Options{Heuristic: h, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if wantHit && (res.Outcome != "hit" || res.EnumeratedSegments != 0) {
					b.Fatalf("warm run not a pure hit: outcome=%q segments=%d",
						res.Outcome, res.EnumeratedSegments)
				}
				ct.Selected[i] = res.Selected
				ct.RD[i] = res.RDStr
				ct.Segments[i] = res.Segments
			}
			return ct
		}
		analysis.Reset()
		var coldBefore, coldAfter runtime.MemStats
		runtime.ReadMemStats(&coldBefore)
		t0 := time.Now()
		cold := storePipeline(false)
		coldNs := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&coldAfter)
		for i, h := range heuristics {
			rep, err := Identify(c880, h, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Selected != cold.Selected[i] || rep.RD.String() != cold.RD[i] {
				b.Fatalf("store pipeline diverges from direct pipeline for %v", h)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 = time.Now()
		for i := 0; i < b.N; i++ {
			warm := storePipeline(true)
			if warm != cold {
				b.Fatalf("store hit served different counters:\ncold %+v\nwarm %+v", cold, warm)
			}
		}
		warmNs := time.Since(t0).Nanoseconds() / int64(b.N)
		runtime.ReadMemStats(&after)
		warmAllocs := (after.Mallocs - before.Mallocs) / uint64(b.N)
		warmBytes := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)

		// The warm hit is a couple of hundred microseconds of file reads,
		// so the raw cold/warm ratio is jitter-dominated (it swings 2-3x
		// between otherwise identical runs). The regression gate's job for
		// this row is qualitative — a hit that starts re-enumerating drops
		// the ratio to ~1x — so the gated speedup is clamped to a floor the
		// noise can never reach from below. PathsPerSec is reported as zero
		// because a pure hit walks zero paths; benchcompare skips absent
		// throughput rather than gating noise.
		speedup := float64(coldNs) / float64(warmNs)
		b.ReportMetric(speedup, "speedup")
		const speedupFloor = 50
		if speedup > speedupFloor {
			speedup = speedupFloor
		}
		rows = append(rows, benchjson.IdentifyRow{
			Circuit:        "c880-store-hit",
			UncachedNsOp:   coldNs,
			CachedNsOp:     warmNs,
			CachedColdNs:   coldNs,
			Speedup:        speedup,
			HotLoopAllocs:  warmAllocs,
			UncachedAllocs: coldAfter.Mallocs - coldBefore.Mallocs,
			CachedAllocs:   warmAllocs,
			UncachedBytes:  coldAfter.TotalAlloc - coldBefore.TotalAlloc,
			CachedBytes:    warmBytes,
			Counters:       cold,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			NumCPU:         runtime.NumCPU(),
		})
		analysis.Reset()
	})
	if len(rows) == 0 {
		return
	}
	for _, r := range rows {
		if r.CachedNsOp >= r.UncachedNsOp {
			b.Errorf("%s: cached pipeline not faster (%d ns vs %d ns)",
				r.Circuit, r.CachedNsOp, r.UncachedNsOp)
		}
		if r.CachedAllocs >= r.UncachedAllocs {
			b.Errorf("%s: cached pipeline not lower-allocating (%d vs %d allocs)",
				r.Circuit, r.CachedAllocs, r.UncachedAllocs)
		}
	}
	if err := benchjson.WriteFile("BENCH_identify.json", benchjson.KindIdentify, rows); err != nil {
		b.Fatal(err)
	}
	fmt.Println("wrote BENCH_identify.json")
	for _, r := range rows {
		fmt.Printf("%-8s uncached %8.2fms  cached %8.2fms  speedup %.2fx  allocs %d -> %d\n",
			r.Circuit, float64(r.UncachedNsOp)/1e6, float64(r.CachedNsOp)/1e6,
			r.Speedup, r.UncachedAllocs, r.CachedAllocs)
	}
}

// BenchmarkPathCountC6288 reproduces the path-count remark that excludes
// c6288 from Table I: exact counting on the 16x16 array multiplier
// (>10^17 logical paths here; >1.9*10^20 in the original) is linear-time
// even though enumeration is hopeless.
func BenchmarkPathCountC6288(b *testing.B) {
	c := gen.C6288Analogue()
	var total *big.Int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = paths.NewCounts(c).Logical()
	}
	b.StopTimer()
	threshold := new(big.Int).Exp(big.NewInt(10), big.NewInt(17), nil)
	if total.Cmp(threshold) < 0 {
		b.Fatalf("multiplier path count %v below 10^17", total)
	}
	fmt.Printf("\nc6288-analogue logical paths: %v (original: >1.9e20)\n", total)
}
