package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opLog counts operations and records measured job latencies. A job is
// one operation; set-up warm-up jobs are operations too, but only jobs
// of the measured phase enter the latency record. Safe for concurrent
// use.
type opLog struct {
	mu        sync.Mutex
	ops       []opState
	lat       []float64            // ms, measured jobs only
	byKind    map[string][]float64 // the same latencies by job kind
	ends      []time.Time          // completion times of measured jobs
	cuts      []time.Time          // ends of measured rounds, when marked
	measuring atomic.Bool          // set by the driver around the measured phase
}

type opState struct {
	failed bool
	wrong  bool // the failure was a wrong answer, not an error
}

// start registers an operation and returns its handle.
func (l *opLog) start() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, opState{})
	return len(l.ops) - 1
}

// done records a finished operation's latency (measured phase only)
// under its kind, such as the base circuit it ran.
func (l *opLog) done(kind string, lat time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.measuring.Load() {
		if l.byKind == nil {
			l.byKind = map[string][]float64{}
		}
		l.lat = append(l.lat, ms(lat))
		l.byKind[kind] = append(l.byKind[kind], ms(lat))
		l.ends = append(l.ends, time.Now())
	}
}

// cut marks the end of a measured round.
func (l *opLog) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cuts = append(l.cuts, time.Now())
}

// rate is the median over windows of the jobs completed per second in
// each. The windows are the workload's rounds when it marks them;
// otherwise blocks of rateBlock consecutive completions within the
// first d of the measured phase, which runs from start to end (the
// whole phase when that holds fewer than two blocks). A median over many
// windows keeps a few seconds of contention from another process out of
// the figure.
func (l *opLog) rate(start, end time.Time, d time.Duration) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ends := append([]time.Time(nil), l.ends...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var rates []float64
	if len(l.cuts) > 0 {
		prev := start
		for _, c := range l.cuts {
			lo := sort.Search(len(ends), func(k int) bool { return ends[k].After(prev) })
			hi := sort.Search(len(ends), func(k int) bool { return ends[k].After(c) })
			rates = append(rates, float64(hi-lo)/c.Sub(prev).Seconds())
			prev = c
		}
		return median(rates)
	}
	prev := start
	for i := rateBlock - 1; i < len(ends) && !ends[i].After(start.Add(d)); i += rateBlock {
		rates = append(rates, rateBlock/ends[i].Sub(prev).Seconds())
		prev = ends[i]
	}
	if len(rates) < 2 {
		return float64(len(ends)) / end.Sub(start).Seconds()
	}
	return median(rates)
}

// rateBlock is the number of completions per window of an unrounded
// workload.
const rateBlock = 100

// kinds summarizes the measured latencies of each job kind.
func (l *opLog) kinds() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for k, v := range l.byKind {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		out = append(out, fmt.Sprintf("jobs %-16s n=%5d p25=%9.3f p50=%9.3f p75=%9.3f max=%9.3f ms",
			k, len(s), percentile(s, 25), percentile(s, 50), percentile(s, 75), s[len(s)-1]))
	}
	sort.Strings(out)
	return out
}

// fail marks operation id failed: the program returned an error.
func (l *opLog) fail(id int, format string, args ...any) {
	l.mark(id, false, format, args...)
}

// mismatch marks operation id failed: its answer failed a check.
func (l *opLog) mismatch(id int, format string, args ...any) {
	l.mark(id, true, format, args...)
}

func (l *opLog) mark(id int, wrong bool, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &l.ops[id]
	if !st.failed && l.failedLocked() < 20 {
		fmt.Fprintf(os.Stderr, "rdbench: operation %d failed: %s\n", id, fmt.Sprintf(format, args...))
	}
	st.failed = true
	st.wrong = st.wrong || wrong
}

func (l *opLog) failedLocked() int {
	n := 0
	for _, s := range l.ops {
		if s.failed {
			n++
		}
	}
	return n
}

func (l *opLog) attempted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

func (l *opLog) failedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failedLocked()
}

// wrong reports whether any answer failed a check.
func (l *opLog) wrong() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.ops {
		if s.wrong {
			return true
		}
	}
	return false
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is the number of jobs ranked above the p-th percentile of n.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perJob divides a total by a job count, reading 0 for no jobs.
func perJob(total float64, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return total / float64(jobs)
}

// cpuStat reads the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it cannot be read). Stolen time is time a
// virtual CPU was ready to run but the hypervisor ran something else.
func cpuStat() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
