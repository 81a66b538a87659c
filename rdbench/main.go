// Command rdbench is the repository's end-to-end benchmark. It runs one
// named workload (identify, eco or fleet) from a seed for a fixed
// measured time, checks every answer the program returns, and prints
// the end-to-end metrics, or with -trace 1 the per-layer metrics taken
// from spans it records around its calls into each layer.
//
//	go run . -workload identify -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// See README.md for the workloads, the checks and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run, in print order. A layer
// that a workload never calls reports 0 there.
var perLayer = []metric{
	{"circuit.parse_ms", "ms"},
	{"circuit.cone_split_ms", "ms"},
	{"paths.count_ms", "ms"},
	{"core.sort_ms", "ms"},
	{"core.enumerate_ms", "ms"},
	{"core.segments", "count"},
	{"core.ns_per_segment", "ns"},
	{"core.allocs_per_job", "count"},
	{"store.hash_ms", "ms"},
	{"store.hit_ms", "ms"},
	{"store.delta_ms", "ms"},
	{"store.miss_ms", "ms"},
	{"store.cone_reuse_ratio", "ratio"},
	{"store.bytes_per_job", "bytes"},
	{"serve.submit_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.cone_rtt_ms", "ms"},
	{"serve.cone_overhead_ms", "ms"},
	{"serve.shed", "count"},
	{"fleet.pre_dispatch_ms", "ms"},
	{"fleet.tail_merge_ms", "ms"},
	{"fleet.dispatches_per_job", "count"},
	{"fleet.retries", "count"},
	{"fleet.worker_busy_share", "ratio"},
	{"fleet.segment_overlap", "ratio"},
	{"journal.records_per_job", "count"},
	{"journal.bytes_per_job", "bytes"},
	{"journal.append_ms", "ms"},
	{"telemetry.events_per_job", "count"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // length of the measured phase
	trace    bool
	work     string // scratch directory for stores, journals and logs
	spanOut  string // JSONL span dump of a traced run ("" = none)
	setups   int    // set-up repetitions; setup_s is their median
	smoke    bool   // tiny job lists, for the package test
	log      io.Writer
}

// workload is one entry point under measurement.
type workload interface {
	// inputs generates the seeded job lists and returns their digest.
	inputs() (string, error)
	// setup starts servers, pools and stores and runs the warm-up pass.
	setup() error
	// teardown stops whatever setup started.
	teardown()
	// measure runs whole rounds of jobs until at least d has passed and
	// returns the rounds run.
	measure(d time.Duration) (int, error)
	// finish runs the checks that belong after the measured phase and,
	// in a traced run, fills layers with the per-layer metrics.
	finish(layers map[string]float64) error
}

// outcome is what a run reports.
type outcome struct {
	setups  []float64 // seconds per set-up repetition
	start   time.Time // of the measured phase
	wall    time.Duration
	rounds  int
	ops     *opLog
	layers  map[string]float64
	summary []string // extra human-readable lines
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: identify, eco or fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for scratch files and span dumps")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rdbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(mkdir(*dir), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)
	cfg := &config{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		work:     work,
		setups:   5,
		log:      os.Stdout,
	}
	if cfg.trace {
		cfg.spanOut = filepath.Join(mkdir(filepath.Join(*dir, "trace")),
			fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	out, err := run(cfg)
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	if err := report(os.Stdout, cfg, out); err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
}

func mkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdbench:", err)
	os.Exit(1)
}

// newWorkload builds the named workload.
func newWorkload(cfg *config, ops *opLog, tr *tracer) (workload, error) {
	switch cfg.workload {
	case "identify":
		return &identifyWorkload{cfg: cfg, ops: ops, tr: tr}, nil
	case "eco":
		return &ecoWorkload{cfg: cfg, ops: ops, tr: tr}, nil
	case "fleet":
		return &fleetWorkload{cfg: cfg, ops: ops, tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want identify, eco or fleet)", cfg.workload)
}

// run generates the inputs, sets up several times, runs whole rounds
// until the measured phase has lasted cfg.measure, then checks.
func run(cfg *config) (*outcome, error) {
	fmt.Fprintf(cfg.log, "host: gomaxprocs=%d num_cpu=%d go=%s seed=%d workload=%s trace=%v\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cfg.seed, cfg.workload, cfg.trace)
	out := &outcome{ops: &opLog{}, layers: map[string]float64{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w, err := newWorkload(cfg, out.ops, tr)
	if err != nil {
		return nil, err
	}
	digest, err := w.inputs()
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(cfg.log, "inputs: %s\n", digest)

	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			w.teardown()
		}
	}
	defer w.teardown()

	steal0, total0 := cpuStat()
	out.ops.measuring.Store(true)
	out.start = time.Now()
	out.rounds, err = w.measure(cfg.measure)
	out.wall = time.Since(out.start)
	out.ops.measuring.Store(false)
	if steal1, total1 := cpuStat(); total1 > total0 {
		out.summary = append(out.summary, fmt.Sprintf("host: %.1f%% of CPU time stolen by the hypervisor during the measured phase",
			100*float64(steal1-steal0)/float64(total1-total0)))
	}
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	if err := w.finish(out.layers); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.dump(cfg.spanOut); err != nil {
			return nil, err
		}
		out.summary = append(out.summary, fmt.Sprintf("spans: %d written to %s", len(tr.spans), cfg.spanOut))
	}
	out.summary = append(out.summary, out.ops.kinds()...)
	tail := tailOf(cfg.workload)
	out.summary = append(out.summary, fmt.Sprintf("tail: p%g of %d measured jobs, %d beyond it",
		tail, len(out.ops.lat), beyond(len(out.ops.lat), tail)))
	return out, nil
}

// e2e computes the end-to-end metrics of a run.
func e2e(cfg *config, out *outcome, tail float64) map[string]float64 {
	lat := append([]float64(nil), out.ops.lat...)
	sort.Float64s(lat)
	return map[string]float64{
		"setup_s":     median(out.setups),
		"jobs_per_s":  out.ops.rate(out.start, out.start.Add(out.wall), cfg.measure),
		"job_p50_ms":  percentile(lat, 50),
		"job_tail_ms": percentile(lat, tail),
		"peak_rss_mb": peakRSSMiB(),
	}
}

// report prints the human-readable summary and, last, the JSON result.
func report(w io.Writer, cfg *config, out *outcome) error {
	tail := tailOf(cfg.workload)
	ee := e2e(cfg, out, tail)
	failed := out.ops.failedCount()
	fmt.Fprintf(w, "ops: attempted=%d failed=%d (measured %d jobs in %d rounds, %.2fs)\n",
		out.ops.attempted(), failed, len(out.ops.lat), out.rounds, out.wall.Seconds())
	for _, s := range out.summary {
		fmt.Fprintln(w, s)
	}
	fmt.Fprintf(w, "set-ups (s):")
	for _, s := range out.setups {
		fmt.Fprintf(w, " %.4f", s)
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-26s %14.4f %s\n", m.name, ee[m.name], m.unit)
	}
	list, values := endToEnd, ee
	if cfg.trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-26s %14.4f %s\n", m.name, out.layers[m.name], m.unit)
		}
		list, values = perLayer, out.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.name] = value{values[m.name], m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{!out.ops.wrong(), out.ops.attempted(), failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// rounds repeats round until at least d has passed, marking each
// round's end in ops.
func rounds(ops *opLog, d time.Duration, round func() error) (int, error) {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < d {
		if err := round(); err != nil {
			return n, err
		}
		ops.cut()
		n++
	}
	return n, nil
}

// tailOf returns the fixed tail percentile of a workload.
func tailOf(name string) float64 {
	switch name {
	case "identify":
		return identifyTail
	case "eco":
		return ecoTail
	}
	return fleetTail
}
