package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
)

// identifyTail is the percentile job_tail_ms reports on identify: the
// 260-360 jobs of a 20 s run leave 10-14 beyond it, inside the block of
// the costliest base.
const identifyTail = 96

// base is one generated circuit that a workload runs in relabeled copies.
type base struct {
	name   string
	class  string
	c      *circuit.Circuit
	copies int // relabeled copies per round
}

// identifyBases is the identify mix. Per round the small class (fixed
// overhead) and the large class (implication-bound) each take about
// half the wall clock on the reference host; see README.md.
func identifyBases(smoke bool) []base {
	if smoke {
		return []base{
			{"prio6x3", "small", gen.PriorityInterruptGrouped(6, 3), 2},
			{"sec8", "large", gen.SECDecoder(8, gen.XorAOI), 1},
		}
	}
	return []base{
		{"prio9x3", "small", gen.PriorityInterruptGrouped(9, 3), 10}, // c432 class
		{"alu10", "small", gen.ALU(10, gen.XorNAND), 34},             // c880 class
		{"cla10", "large", gen.CLAAdder(10, gen.XorNAND), 2},
		{"sec12", "large", gen.SECDecoder(12, gen.XorAOI), 2},    // c499 class
		{"alupipe8", "large", gen.ALUPipeline(8, gen.XorAOI), 4}, // c5315 class
	}
}

// identifyWorkload drives the library entry point: one caller parses
// each netlist and runs core.Identify(Heuristic2, Workers 1) on it.
type identifyWorkload struct {
	cfg   *config
	ops   *opLog
	tr    *tracer
	bases []base
	warm  []netlist // one copy per base, for the warm-up pass
	jobs  []ijob    // one round, in seeded order
	ref   []*core.Report
	spent map[string]time.Duration // measured job time by class

	// traced totals
	jobsTraced int
	segments   int64
	mallocs    uint64
	walkTime   time.Duration
}

type ijob struct {
	netlist
	base int
}

func (w *identifyWorkload) inputs() (string, error) {
	w.bases = identifyBases(w.cfg.smoke)
	w.ref = make([]*core.Report, len(w.bases))
	w.spent = map[string]time.Duration{}
	d := newDigester()
	for bi, b := range w.bases {
		n, err := relabeled(b.c, b.name+".warm", subSeed(w.cfg.seed, 0, bi))
		if err != nil {
			return "", err
		}
		w.warm = append(w.warm, n)
		d.add(n)
		for k := 0; k < b.copies; k++ {
			n, err := relabeled(b.c, fmt.Sprintf("%s.r%d", b.name, k), subSeed(w.cfg.seed, 1, bi, k))
			if err != nil {
				return "", err
			}
			w.jobs = append(w.jobs, ijob{n, bi})
		}
	}
	rand.New(rand.NewSource(w.cfg.seed)).Shuffle(len(w.jobs), func(i, j int) {
		w.jobs[i], w.jobs[j] = w.jobs[j], w.jobs[i]
	})
	for _, j := range w.jobs {
		d.add(j.netlist)
	}
	return d.String(), nil
}

// setup is the warm-up pass: one cold identification per base.
func (w *identifyWorkload) setup() error {
	for bi, n := range w.warm {
		if err := w.run(ijob{n, bi}); err != nil {
			return err
		}
	}
	return nil
}

func (w *identifyWorkload) teardown() {}
func (w *identifyWorkload) measure(d time.Duration) (int, error) {
	return rounds(w.ops, d, func() error {
		for _, j := range w.jobs {
			if err := w.run(j); err != nil {
				return err
			}
		}
		return nil
	})
}

// run executes and checks one job. Only a failure of the benchmark
// itself is returned; a program error or a wrong answer fails the
// operation.
func (w *identifyWorkload) run(j ijob) error {
	id := w.ops.start()
	var (
		c   *circuit.Circuit
		rep *core.Report
		err error
	)
	t0 := time.Now()
	if w.tr != nil && w.ops.measuring.Load() {
		c, rep, err = w.traced(id, j)
	} else {
		c, err = circuit.ParseBench(j.name, strings.NewReader(j.text))
		if err == nil {
			rep, err = core.Identify(c, core.Heuristic2, core.Options{Workers: 1})
		}
	}
	lat := time.Since(t0)
	w.ops.done(w.bases[j.base].name, lat)
	if w.ops.measuring.Load() {
		w.spent[w.bases[j.base].class] += lat
	}
	if err != nil {
		w.ops.fail(id, "%s: %v", j.name, err)
		return nil
	}
	if err := w.check(j, c, rep); err != nil {
		w.ops.mismatch(id, "%s: %v", j.name, err)
	}
	return nil
}

// traced runs one job as its constituent public calls, each in a span.
func (w *identifyWorkload) traced(id int, j ijob) (*circuit.Circuit, *core.Report, error) {
	tr := w.tr
	root := tr.begin("job", id, 0)
	defer tr.end(root)

	s := tr.begin("circuit.parse", id, root)
	c, err := circuit.ParseBench(j.name, strings.NewReader(j.text))
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("paths.count", id, root)
	analysis.For(c).Logical()
	tr.end(s)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	s = tr.begin("core.sort", id, root)
	sort, fsRes, tRes, err := core.Heuristic2SortWorkers(c, 1)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("core.enumerate", id, root)
	res, err := core.Enumerate(c, core.SigmaPi, core.Options{Sort: &sort, Workers: 1})
	tr.end(s)
	walk := time.Since(t1)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, err
	}
	w.jobsTraced++
	w.segments += fsRes.Segments + tRes.Segments + res.Segments
	w.mallocs += m1.Mallocs - m0.Mallocs
	w.walkTime += walk
	return c, &core.Report{TotalLogicalPaths: res.Total, RD: res.RD, Selected: res.Selected, Final: res}, nil
}

// check verifies one answer: the path count, RD = Total - Selected,
// |T^sup| <= Selected <= |FS^sup| from the memoized Algorithm 3 passes,
// and equal counters across every relabeling of the base.
func (w *identifyWorkload) check(j ijob, c *circuit.Circuit, rep *core.Report) error {
	if !rep.Final.Complete {
		return fmt.Errorf("run ended %v", rep.Final.Status)
	}
	if err := checkCounts(rep.TotalLogicalPaths, rep.RD, rep.Selected, j.paths); err != nil {
		return err
	}
	_, fsRes, tRes, err := core.Heuristic2SortWorkers(c, 1)
	if err != nil {
		return fmt.Errorf("reading the Algorithm 3 passes: %v", err)
	}
	if rep.Selected < tRes.Selected || rep.Selected > fsRes.Selected {
		return fmt.Errorf("selected %d outside [|T^sup| %d, |FS^sup| %d]", rep.Selected, tRes.Selected, fsRes.Selected)
	}
	ref := w.ref[j.base]
	if ref == nil {
		w.ref[j.base] = rep
		return nil
	}
	if rep.Selected != ref.Selected || rep.RD.Cmp(ref.RD) != 0 {
		return fmt.Errorf("selected %d RD %s, another relabeling of %s gave %d and %s",
			rep.Selected, rep.RD, w.bases[j.base].name, ref.Selected, ref.RD)
	}
	return nil
}

func (w *identifyWorkload) finish(layers map[string]float64) error {
	small, large := w.spent["small"], w.spent["large"]
	fmt.Fprintf(w.cfg.log, "identify: small circuits took %.0f%% of the measured job time, large %.0f%%\n",
		100*small.Seconds()/(small+large).Seconds(), 100*large.Seconds()/(small+large).Seconds())
	if w.tr == nil {
		return nil
	}
	self, count := w.tr.selfTimes()
	n := count["job"]
	for name, metric := range map[string]string{
		"circuit.parse":  "circuit.parse_ms",
		"paths.count":    "paths.count_ms",
		"core.sort":      "core.sort_ms",
		"core.enumerate": "core.enumerate_ms",
	} {
		layers[metric] = perJob(ms(self[name]), n)
	}
	layers["core.segments"] = perJob(float64(w.segments), w.jobsTraced)
	layers["core.allocs_per_job"] = perJob(float64(w.mallocs), w.jobsTraced)
	if w.segments > 0 {
		layers["core.ns_per_segment"] = float64(w.walkTime.Nanoseconds()) / float64(w.segments)
	}
	return nil
}
