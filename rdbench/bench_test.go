package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/gen"
)

// TestWorkloadsSmoke runs every workload, untraced and traced, on a tiny
// job list with every check on, and requires a complete, well-formed
// result with no failed operation.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"identify", "eco", "fleet"} {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[trace], func(t *testing.T) {
				var buf bytes.Buffer
				cfg := &config{
					workload: name,
					seed:     7,
					measure:  50 * time.Millisecond,
					trace:    trace,
					work:     t.TempDir(),
					setups:   2,
					smoke:    true,
					log:      &buf,
				}
				want := endToEnd
				if trace {
					cfg.spanOut = filepath.Join(cfg.work, "spans.jsonl")
					want = perLayer
				}
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := report(&buf, cfg, out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
				}
				if !trace {
					for _, m := range endToEnd {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", m.name, res.Metrics[m.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestInputsDeterministic requires the same seed to give the same job
// list and another seed another one.
func TestInputsDeterministic(t *testing.T) {
	digest := func(name string, seed int64) string {
		cfg := &config{workload: name, seed: seed, smoke: true}
		w, err := newWorkload(cfg, &opLog{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := w.inputs()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, name := range []string{"identify", "eco", "fleet"} {
		a, b, c := digest(name, 3), digest(name, 3), digest(name, 4)
		if a != b || a == c {
			t.Errorf("%s: seed 3 gives %q and %q, seed 4 %q", name, a, b, c)
		}
	}
}

// TestCountPaths holds the benchmark's own path count to the program's
// on every circuit family the workloads draw from.
func TestCountPaths(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		gen.PaperExample(),
		gen.PriorityInterruptGrouped(6, 3),
		gen.ALU(4, gen.XorNAND),
		gen.ALUPipeline(4, gen.XorAOI),
		gen.SECDecoder(8, gen.XorAOI),
		gen.CLAAdder(8, gen.XorNAND),
		gen.RandomCircuit("rnd", gen.RandomOptions{Inputs: 16, Gates: 60, Outputs: 12}, 5),
	} {
		n, err := newNetlist(c.Name(), c)
		if err != nil {
			t.Fatal(err)
		}
		if want := analysis.For(c).Logical(); n.paths.Cmp(want) != 0 {
			t.Errorf("%s: own count %s, program %s", c.Name(), n.paths, want)
		}
	}
}

// TestBenchmarkJSON holds the metric lists the command prints to the
// ones BENCHMARK.json at the repository root declares.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metric
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the command prints %d", len(c.declared), len(c.printed))
		}
		for i, m := range c.printed {
			if c.declared[i].Name != m.name || c.declared[i].Unit != m.unit {
				t.Errorf("metric %d: declared %+v, printed %s (%s)", i, c.declared[i], m.name, m.unit)
			}
		}
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(&config{workload: w.Name}, &opLog{}, nil); err != nil {
			t.Error(err)
		}
	}
}
