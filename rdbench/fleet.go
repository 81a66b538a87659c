package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/fleet"
	"rdfault/internal/fleet/journal"
	"rdfault/internal/gen"
	"rdfault/internal/serve"
	"rdfault/internal/telemetry"
)

// fleetTail is the percentile job_tail_ms reports on fleet: the 145-240
// jobs of a 20 s run leave 10-17 beyond it, inside the block of the
// costliest base.
const fleetTail = 93

// fleetBases is the fleet mix: many-output random logic, whose small
// overlapping cones make dispatch and journal appends dominate, and
// datapaths with few large cones, where cone walks dominate. Sorted by
// latency the copies form four blocks; the median falls inside the
// alupipe8 block and the tail inside the sec16 block, both compute-bound
// datapaths, so neither sits on a boundary or on the random logic, whose
// latency swings most with contention from other processes.
func fleetBases(smoke bool) []base {
	if smoke {
		return []base{
			{"rnd", "random", gen.RandomCircuit("rnd", gen.RandomOptions{Inputs: 16, Gates: 40, Outputs: 8}, 3), 1},
			{"alu4", "datapath", gen.ALU(4, gen.XorNAND), 1},
		}
	}
	return []base{
		{"alu8", "datapath", gen.ALU(8, gen.XorNAND), 4},
		{"alupipe8", "datapath", gen.ALUPipeline(8, gen.XorAOI), 4},
		{"rnd55", "random", gen.RandomCircuit("rnd55", gen.RandomOptions{Inputs: 40, Gates: 160, Outputs: 55}, 3), 2},
		{"sec16", "datapath", gen.SECDecoder(16, gen.XorAOI), 2},
	}
}

// fleetJournal is one job's journal, audited after the measured phase.
type fleetJournal struct {
	op   int
	path string
	name string
}

// fleetWorkload drives rdfleet: one caller runs fleet.Run over a
// two-worker in-process pool, journaling every job to local disk.
type fleetWorkload struct {
	cfg      *config
	ops      *opLog
	tr       *tracer
	bases    []base
	warm     []netlist
	jobs     []ijob
	direct   []*core.Report // whole-circuit Heuristic 1 run per base
	pool     *fleet.LocalPool
	logf     *os.File
	log      *telemetry.Log
	setups   int
	seq      int
	journals []fleetJournal

	// traced totals
	nEvents    int
	jobsTraced int
	jobTime    time.Duration
	preDisp    time.Duration
	tailMerge  time.Duration
	rtt        time.Duration
	overhead   time.Duration
	nDispatch  int64
	retries    int64
	segments   int64
	wholeSegs  int64
	records    int
	jbytes     int64
}

func (w *fleetWorkload) inputs() (string, error) {
	w.bases = fleetBases(w.cfg.smoke)
	d := newDigester()
	for bi, b := range w.bases {
		n, err := relabeled(b.c, b.name+".warm", subSeed(w.cfg.seed, 0, bi))
		if err != nil {
			return "", err
		}
		w.warm = append(w.warm, n)
		d.add(n)
	}
	// Interleave the bases so a round never runs one class back to back.
	for k := 0; ; k++ {
		added := false
		for bi, b := range w.bases {
			if k < b.copies {
				n, err := relabeled(b.c, fmt.Sprintf("%s.r%d", b.name, k), subSeed(w.cfg.seed, 1, bi, k))
				if err != nil {
					return "", err
				}
				w.jobs = append(w.jobs, ijob{n, bi})
				d.add(n)
				added = true
			}
		}
		if !added {
			break
		}
	}
	// The direct reference runs once per base, before any set-up.
	for _, n := range w.warm {
		c, err := circuit.ParseBench(n.name, strings.NewReader(n.text))
		if err != nil {
			return "", err
		}
		rep, err := core.Identify(c, core.Heuristic1, core.Options{Workers: 1})
		if err != nil {
			return "", fmt.Errorf("direct run of %s: %w", n.name, err)
		}
		w.direct = append(w.direct, rep)
	}
	return d.String(), nil
}

// setup starts the two-worker pool and its event log and runs every
// base once through the fleet.
func (w *fleetWorkload) setup() error {
	w.setups++
	dir := filepath.Join(w.cfg.work, fmt.Sprintf("fleet-%d", w.setups))
	if err := os.MkdirAll(filepath.Join(dir, "journals"), 0o755); err != nil {
		return err
	}
	var err error
	if w.logf, err = os.Create(filepath.Join(dir, "events.jsonl")); err != nil {
		return err
	}
	w.log = telemetry.NewLog(w.logf)
	if w.tr != nil {
		w.log.SetSink(func(telemetry.Event) {
			if w.ops.measuring.Load() {
				w.nEvents++ // the sink runs under the log's lock
			}
		})
	}
	w.pool, err = fleet.NewLocalPool(2, serve.Config{
		Workers:         1,
		MaxConeInFlight: 2,
		SpillDir:        dir,
		Telemetry:       w.log,
	})
	if err != nil {
		return err
	}
	for bi, n := range w.warm {
		if err := w.run(ijob{n, bi}, dir); err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetWorkload) teardown() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
	if w.logf != nil {
		w.logf.Close()
		w.logf = nil
	}
}

func (w *fleetWorkload) measure(d time.Duration) (int, error) {
	dir := filepath.Join(w.cfg.work, fmt.Sprintf("fleet-%d", w.setups))
	return rounds(w.ops, d, func() error {
		for _, j := range w.jobs {
			if err := w.run(j, dir); err != nil {
				return err
			}
		}
		return nil
	})
}

// run executes one fleet job with its own journal and checks its
// counters against the base's direct run.
func (w *fleetWorkload) run(j ijob, dir string) error {
	w.seq++
	path := filepath.Join(dir, "journals", fmt.Sprintf("job-%d.journal", w.seq))
	tr := w.tr
	if !w.ops.measuring.Load() {
		tr = nil
	}
	traced := tr != nil
	var tt *timingTransport
	cfg := fleet.Config{
		Transport:   &fleet.HTTPTransport{},
		Workers:     w.pool.Addrs(),
		SliceMS:     0,
		EnumWorkers: 1,
		Telemetry:   w.log,
	}
	if traced {
		tt = &timingTransport{inner: cfg.Transport, tr: w.tr}
		cfg.Transport = tt
	}
	op := w.ops.start()
	t0 := time.Now()
	root := 0
	if traced {
		root = tr.begin("job", op, 0)
		tt.job, tt.parent = op, root
	}
	ps := tr.begin("circuit.parse", op, root)
	c, err := circuit.ParseBench(j.name, strings.NewReader(j.text))
	tr.end(ps)
	var res *fleet.Result
	var tRun time.Time
	if err == nil {
		var jw *journal.Writer
		if jw, err = journal.Create(path, 1, nil); err == nil {
			cfg.Journal = jw
			tRun = time.Now()
			res, err = fleet.Run(context.Background(), cfg, c, core.Heuristic1)
			if cerr := jw.Close(); err == nil {
				err = cerr
			}
		}
	}
	end := time.Now()
	w.ops.done(w.bases[j.base].name, end.Sub(t0))
	tr.end(root)
	if err != nil {
		w.ops.fail(op, "%s: %v", j.name, err)
		return nil
	}
	w.journals = append(w.journals, fleetJournal{op, path, j.name})
	ref := w.direct[j.base]
	if err := checkCounts(res.Total, res.RD, res.Selected, j.paths); err != nil {
		w.ops.mismatch(op, "%s: %v", j.name, err)
	} else if res.Selected != ref.Selected || res.RD.Cmp(ref.RD) != 0 {
		w.ops.mismatch(op, "%s: fleet gives selected %d RD %s, a direct run of the base %d and %s",
			j.name, res.Selected, res.RD, ref.Selected, ref.RD)
	}
	if traced {
		w.account(op, j, res, tt, t0, tRun, end, path)
	}
	return nil
}

// account adds one traced job's layer figures: the transport's dispatch
// timings; the cone split and the heuristic 1 sort, timed again on a
// fresh parse; and the job's journal re-appended record by record to a
// fresh file.
func (w *fleetWorkload) account(op int, j ijob, res *fleet.Result, tt *timingTransport, t0, tRun, end time.Time, path string) {
	w.jobsTraced++
	w.jobTime += end.Sub(t0)
	if !tt.first.IsZero() {
		w.preDisp += tt.first.Sub(tRun)
		w.tailMerge += end.Sub(tt.last)
	}
	w.rtt += tt.rtt
	w.overhead += tt.overhead
	w.nDispatch += tt.n
	w.retries += res.Stats.Failures + res.Stats.Abandoned + res.Stats.Restarts
	w.segments += res.Segments
	w.wholeSegs += w.direct[j.base].Final.Segments

	c, err := circuit.ParseBench(j.name, strings.NewReader(j.text))
	if err != nil {
		return
	}
	s := w.tr.begin("paths.count", op, 0)
	analysis.For(c).Logical()
	w.tr.end(s)
	s = w.tr.begin("core.sort", op, 0)
	core.Heuristic1Sort(c)
	w.tr.end(s)
	s = w.tr.begin("circuit.cone_split", op, 0)
	for _, po := range c.Outputs() {
		if cone, _, err := c.Cone(po); err == nil {
			benchText(cone)
		}
	}
	w.tr.end(s)

	recs, err := journal.ReadFile(path)
	if err != nil {
		return // the audit after the measured phase fails the operation
	}
	w.records += len(recs)
	if fi, err := os.Stat(path); err == nil {
		w.jbytes += fi.Size()
	}
	jw, err := journal.Create(path+".replay", 1, nil)
	if err != nil {
		w.ops.fail(op, "%s: re-appending its journal: %v", j.name, err)
		return
	}
	defer os.Remove(path + ".replay")
	defer jw.Close()
	for _, r := range recs {
		s := w.tr.begin("journal.append", op, 0)
		err := jw.Append(r.Kind, r.Payload)
		w.tr.end(s)
		if err != nil {
			w.ops.fail(op, "%s: re-appending its journal: %v", j.name, err)
			return
		}
	}
}

// finish audits every journal: each answer merged exactly once, every
// answer leased, the run sealed, and the file replays without error.
func (w *fleetWorkload) finish(layers map[string]float64) error {
	for _, j := range w.journals {
		a, err := fleet.AuditJournal(j.path)
		if err != nil {
			w.ops.mismatch(j.op, "%s: journal audit: %v", j.name, err)
			continue
		}
		if _, err := journal.ReadFile(j.path); err != nil {
			w.ops.mismatch(j.op, "%s: journal replay: %v", j.name, err)
			continue
		}
		if !a.Sealed || a.UnleasedAnswers != 0 || len(a.Answers) != a.Cones {
			w.ops.mismatch(j.op, "%s: journal audit: sealed=%v unleased=%d answered %d of %d cones",
				j.name, a.Sealed, a.UnleasedAnswers, len(a.Answers), a.Cones)
			continue
		}
		for cone, n := range a.Answers {
			if n != 1 {
				w.ops.mismatch(j.op, "%s: cone %d merged %d times", j.name, cone, n)
				break
			}
		}
	}
	if w.tr == nil {
		return nil
	}
	n := w.jobsTraced
	self, _ := w.tr.selfTimes()
	for name, metric := range map[string]string{
		"circuit.parse":      "circuit.parse_ms",
		"circuit.cone_split": "circuit.cone_split_ms",
		"paths.count":        "paths.count_ms",
		"core.sort":          "core.sort_ms",
	} {
		layers[metric] = perJob(ms(self[name]), n)
	}
	layers["core.segments"] = perJob(float64(w.segments), n)
	if w.segments > 0 {
		layers["core.ns_per_segment"] = float64(w.rtt.Nanoseconds()) / float64(w.segments)
	}
	layers["serve.cone_rtt_ms"] = perJob(ms(w.rtt), int(w.nDispatch))
	layers["serve.cone_overhead_ms"] = perJob(ms(w.overhead), int(w.nDispatch))
	layers["fleet.pre_dispatch_ms"] = perJob(ms(w.preDisp), n)
	layers["fleet.tail_merge_ms"] = perJob(ms(w.tailMerge), n)
	layers["fleet.dispatches_per_job"] = perJob(float64(w.nDispatch), n)
	layers["fleet.retries"] = float64(w.retries)
	if w.jobTime > 0 {
		layers["fleet.worker_busy_share"] = float64(w.rtt) / float64(2*w.jobTime)
	}
	if w.wholeSegs > 0 {
		layers["fleet.segment_overlap"] = float64(w.segments) / float64(w.wholeSegs)
	}
	layers["journal.records_per_job"] = perJob(float64(w.records), n)
	layers["journal.bytes_per_job"] = perJob(float64(w.jbytes), n)
	layers["journal.append_ms"] = perJob(ms(self["journal.append"]), w.records)
	layers["telemetry.events_per_job"] = perJob(float64(w.nEvents), n)
	return nil
}

// timingTransport wraps the HTTP transport and records each dispatch's
// round trip as a span.
type timingTransport struct {
	inner       fleet.Transport
	tr          *tracer
	job, parent int

	mu          sync.Mutex
	first, last time.Time
	rtt         time.Duration
	overhead    time.Duration
	n           int64
}

func (t *timingTransport) Dispatch(ctx context.Context, worker string, req serve.ConeRequest) (*serve.ConeAnswer, error) {
	s := t.tr.begin("serve.cone", t.job, t.parent)
	t0 := time.Now()
	ans, err := t.inner.Dispatch(ctx, worker, req)
	t1 := time.Now()
	t.tr.end(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.first.IsZero() {
		t.first = t0
	}
	t.last = t1
	t.rtt += t1.Sub(t0)
	if ans != nil {
		t.overhead += t1.Sub(t0) - time.Duration(ans.DurationMS)*time.Millisecond
	}
	t.n++
	return ans, err
}

func (t *timingTransport) Healthz(ctx context.Context, worker string) error {
	return t.inner.Healthz(ctx, worker)
}
