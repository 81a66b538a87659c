package main

import (
	"strings"
	"testing"

	"rdfault/internal/benchjson"
	"rdfault/internal/cliutil/goldentest"
)

func row(circuit string, speedup, pps float64) benchjson.IdentifyRow {
	return benchjson.IdentifyRow{Circuit: circuit, Speedup: speedup, PathsPerSec: pps}
}

func shaped(r benchjson.IdentifyRow, gomaxprocs, numCPU int) benchjson.IdentifyRow {
	r.GOMAXPROCS, r.NumCPU = gomaxprocs, numCPU
	return r
}

// TestCompareGate: the regression arithmetic — within-tolerance drift
// passes, beyond-tolerance drift fails, missing circuits fail, metrics
// the baseline lacks are skipped.
func TestCompareGate(t *testing.T) {
	base := []benchjson.IdentifyRow{row("c432", 2.0, 1e6), row("c880", 3.0, 2e6)}

	t.Run("clean", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 2.1, 1.1e6), row("c880", 2.9, 1.9e6)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 0 {
			t.Fatalf("clean run reported %d regressions", n)
		}
	})
	t.Run("speedup-regressed", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 1.5, 1e6), row("c880", 3.0, 2e6)}
		var out strings.Builder
		if n := compare(&out, base, cur, 0.85); n != 1 {
			t.Fatalf("want 1 regression, got %d\n%s", n, out.String())
		}
		if !strings.Contains(out.String(), "REGRESSED") {
			t.Fatalf("regression not flagged in output:\n%s", out.String())
		}
	})
	t.Run("pps-regressed", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 2.0, 0.5e6), row("c880", 3.0, 2e6)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 1 {
			t.Fatalf("want 1 regression, got %d", n)
		}
	})
	t.Run("missing-circuit", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{row("c432", 2.0, 1e6)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 1 {
			t.Fatalf("dropped circuit must gate: got %d", n)
		}
	})
	t.Run("host-shape-differs", func(t *testing.T) {
		b := []benchjson.IdentifyRow{shaped(row("c432", 2.0, 1e6), 1, 1)}
		cur := []benchjson.IdentifyRow{shaped(row("c432", 2.0, 1e6), 2, 2)}
		var out strings.Builder
		if n := compare(&out, b, cur, 0.85); n != 1 {
			t.Fatalf("rows from different host shapes must fail the gate, got %d failures", n)
		}
		if !strings.Contains(out.String(), "incomparable host shape") {
			t.Fatalf("shape mismatch not reported:\n%s", out.String())
		}
	})
	t.Run("baseline-lacks-shape", func(t *testing.T) {
		cur := []benchjson.IdentifyRow{shaped(row("c432", 2.0, 1e6), 2, 2), shaped(row("c880", 3.0, 2e6), 2, 2)}
		if n := compare(&strings.Builder{}, base, cur, 0.85); n != 0 {
			t.Fatalf("a baseline without a host shape must compare as before, got %d failures", n)
		}
	})
	t.Run("legacy-baseline-skips-pps", func(t *testing.T) {
		legacy := []benchjson.IdentifyRow{row("c432", 2.0, 0)} // no paths/sec in old artifacts
		cur := []benchjson.IdentifyRow{row("c432", 2.0, 1e6)}
		var out strings.Builder
		if n := compare(&out, legacy, cur, 0.85); n != 0 {
			t.Fatalf("legacy baseline must skip paths/sec, got %d regressions", n)
		}
		if !strings.Contains(out.String(), "skipped") {
			t.Fatalf("skip not reported:\n%s", out.String())
		}
	})
}

// TestGoldenCompare: the passing-path output format against fixtures in
// the three artifact generations (legacy bare-array baseline included —
// the committed BENCH_identify.json predates the envelope).
func TestGoldenCompare(t *testing.T) {
	golden := goldentest.Golden(t, "compare")
	baseline := goldentest.Fixture(t, "baseline.json")
	current := goldentest.Fixture(t, "current.json")
	out := goldentest.Run(t, "benchcompare", main,
		"-baseline", baseline, "-current", current, "-tolerance", "0.85")
	goldentest.Check(t, golden, out)
}

// TestGoldenIncomparableHostShape: a row measured on a different host
// shape than its baseline fails the gate with exit status 1 even when
// its ratios improved; a row on the same shape is compared as usual.
func TestGoldenIncomparableHostShape(t *testing.T) {
	golden := goldentest.Golden(t, "shape")
	var stdout, stderr strings.Builder
	code := run([]string{
		"-baseline", goldentest.Fixture(t, "shape-baseline.json"),
		"-current", goldentest.Fixture(t, "shape-current.json"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "incomparable host shape") {
		t.Fatalf("stderr does not name the host shape: %s", stderr.String())
	}
	goldentest.Check(t, golden, stdout.String())
}
