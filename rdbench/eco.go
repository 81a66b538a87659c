package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/gen"
	"rdfault/internal/serve"
	"rdfault/internal/store"
	"rdfault/internal/synth"
	"rdfault/internal/telemetry"
)

// ecoTail is the percentile job_tail_ms reports on eco: the 2,400-2,800
// jobs of a 20 s run leave 24-28 beyond it, among the revisions of the
// random designs.
const ecoTail = 99

// ecoChain is the number of revisions each design walks per round.
const ecoChain = 4

// ecoDesigns lists each client's designs.
func ecoDesigns(smoke bool) [][]base {
	if smoke {
		return [][]base{
			{{"alu4", "datapath", gen.ALU(4, gen.XorNAND), 1}},
			{{"rnd", "random", gen.RandomCircuit("rnd", gen.RandomOptions{Inputs: 16, Gates: 40, Outputs: 8}, 3), 1}},
		}
	}
	return [][]base{
		{
			{"alu8n", "datapath", gen.ALU(8, gen.XorNAND), 1},
			{"rnd55a", "random", gen.RandomCircuit("rnd55a", gen.RandomOptions{Inputs: 40, Gates: 160, Outputs: 55}, 3), 1},
		},
		{
			{"alu8a", "datapath", gen.ALU(8, gen.XorAOI), 1},
			{"rnd55b", "random", gen.RandomCircuit("rnd55b", gen.RandomOptions{Inputs: 40, Gates: 160, Outputs: 55}, 4), 1},
		},
	}
}

// ecoRev is one revision and its two relabeled resubmissions.
type ecoRev struct {
	first   netlist
	copies  [2]netlist
	sampled bool // checked against a direct run after the measured phase
}

// ecoSample is a served revision kept for the direct check.
type ecoSample struct {
	op  int
	rev netlist
	ans *serve.Answer
}

// ecoSub is one traced submission, kept for the in-process replay.
type ecoSub struct {
	text   string
	first  bool
	caller time.Duration
	jobID  string
}

// ecoEnv is one set-up: a served rdserved handler with its store and
// event log.
type ecoEnv struct {
	st     *store.Store
	logf   *os.File
	srv    *serve.Server
	hsrv   *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// ecoWorkload drives rdserved: two closed-loop HTTP clients walk their
// designs through revision chains; each revision is submitted once and
// then twice more as relabeled copies, which the result store answers.
type ecoWorkload struct {
	cfg     *config
	ops     *opLog
	tr      *tracer
	designs [][]base
	warm    [][]netlist
	digest  *digester
	env     *ecoEnv
	setups  int

	mu       sync.Mutex
	samples  []ecoSample
	outcomes map[string]int // first-submission store outcomes
	subs     []ecoSub       // traced submissions in order
	events   map[string]map[string]time.Time
	nEvents  int
	shed     int
}

func (w *ecoWorkload) inputs() (string, error) {
	w.designs = ecoDesigns(w.cfg.smoke)
	w.digest = newDigester()
	w.outcomes = map[string]int{}
	for ci, ds := range w.designs {
		var warm []netlist
		for di, d := range ds {
			n, err := relabeled(d.c, d.name+".base", subSeed(w.cfg.seed, 0, ci, di))
			if err != nil {
				return "", err
			}
			w.digest.add(n)
			warm = append(warm, n)
		}
		w.warm = append(w.warm, warm)
	}
	for ci := range w.designs {
		revs, err := w.chain(ci, 0)
		if err != nil {
			return "", err
		}
		for _, r := range revs {
			w.digest.add(r.first)
			w.digest.add(r.copies[0])
			w.digest.add(r.copies[1])
		}
	}
	return w.digest.String() + " (bases and each client's first chain; chain k is seeded from k)", nil
}

// chain generates chain k of client ci: each of the client's designs
// walks ecoChain revisions from its base. A revision relabels its
// predecessor, then edits one or two output cones with
// store.MutateKCones (relabeling first renames the fixed eco_b* buffer
// names an earlier edit introduced, which the generator would otherwise
// reuse). Chains depend only on the seed, the client and k.
func (w *ecoWorkload) chain(ci, k int) ([]ecoRev, error) {
	var revs []ecoRev
	for di, d := range w.designs[ci] {
		prev := d.c
		for v := 0; v < ecoChain; v++ {
			s := func(step int) int64 { return subSeed(w.cfg.seed, 1, ci, k, di, v, step) }
			rl, _, err := synth.Relabel(prev, s(0))
			if err != nil {
				return nil, err
			}
			rev, _, err := store.MutateKCones(rl, 1+int(s(1)%2), s(2))
			if err != nil {
				return nil, fmt.Errorf("editing %s: %w", d.name, err)
			}
			name := fmt.Sprintf("%s.k%d.v%d", d.name, k, v)
			first, err := newNetlist(name, rev)
			if err != nil {
				return nil, err
			}
			e := ecoRev{first: first, sampled: v == ecoChain-1 || s(3)%4 == 0}
			for i := range e.copies {
				if e.copies[i], err = relabeled(rev, fmt.Sprintf("%s.c%d", name, i), s(4+i)); err != nil {
					return nil, err
				}
			}
			revs = append(revs, e)
			prev = rev
		}
	}
	return revs, nil
}

// setup starts a server with a fresh store and event log and submits
// every design's base cold.
func (w *ecoWorkload) setup() error {
	w.setups++
	dir := filepath.Join(w.cfg.work, fmt.Sprintf("eco-%d", w.setups))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env := &ecoEnv{served: make(chan struct{})}
	w.env = env // teardown releases whatever set-up got to start
	var err error
	if env.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
		return err
	}
	if env.logf, err = os.Create(filepath.Join(dir, "events.jsonl")); err != nil {
		return err
	}
	log := telemetry.NewLog(env.logf)
	if w.tr != nil {
		log.SetSink(w.sink)
	}
	env.srv = serve.New(serve.Config{
		MaxInFlight: 2,
		Workers:     1,
		Store:       env.st,
		Telemetry:   log,
		SpillDir:    dir,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	env.hsrv = &http.Server{Handler: env.srv.Handler()}
	go func() {
		defer close(env.served)
		env.hsrv.Serve(ln)
	}()
	env.url = "http://" + ln.Addr().String()
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	for _, warm := range w.warm {
		for _, n := range warm {
			if _, _, err := w.submit(n, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *ecoWorkload) teardown() {
	env := w.env
	if env == nil {
		return
	}
	w.env = nil
	if env.hsrv != nil {
		env.hsrv.Close()
		<-env.served
		env.client.CloseIdleConnections()
	}
	if env.srv != nil {
		env.srv.Close()
	}
	if env.logf != nil {
		env.logf.Close()
	}
}

// measure runs both clients concurrently. Each walks whole chains,
// generating the next one between chains, until d has passed.
func (w *ecoWorkload) measure(d time.Duration) (int, error) {
	t0 := time.Now()
	errs := make([]error, len(w.designs))
	chains := make([]int, len(w.designs))
	var wg sync.WaitGroup
	for ci := range w.designs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Since(t0) < d; k++ {
				revs, err := w.chain(ci, k)
				if err == nil {
					err = w.client(revs)
				}
				if err != nil {
					errs[ci] = err
					return
				}
				chains[ci]++
			}
		}(ci)
	}
	wg.Wait()
	fmt.Fprintf(w.cfg.log, "eco: chains walked per client %v\n", chains)
	n := 0
	for ci, err := range errs {
		if err != nil {
			return 0, err
		}
		n += chains[ci]
	}
	return n, nil
}

// client walks one chain: each revision, then its two relabeled copies,
// which must be store hits with the same counters.
func (w *ecoWorkload) client(revs []ecoRev) error {
	for _, rev := range revs {
		ans, op, err := w.submit(rev.first, true)
		if err != nil {
			return err
		}
		if ans == nil {
			continue
		}
		if rev.sampled {
			w.mu.Lock()
			w.samples = append(w.samples, ecoSample{op, rev.first, ans})
			w.mu.Unlock()
		}
		for _, cp := range rev.copies {
			got, cop, err := w.submit(cp, false)
			if err != nil {
				return err
			}
			if got == nil {
				continue
			}
			if got.Store != "hit" {
				w.ops.mismatch(cop, "%s: relabeled resubmission served %q, want a store hit", cp.name, got.Store)
			} else if got.TotalPaths != ans.TotalPaths || got.Selected != ans.Selected || got.RD != ans.RD {
				w.ops.mismatch(cop, "%s: hit served %s/%d/%s, the revision's first answer was %s/%d/%s",
					cp.name, got.TotalPaths, got.Selected, got.RD, ans.TotalPaths, ans.Selected, ans.RD)
			}
		}
	}
	return nil
}

// submit sends one job over HTTP, waits for its terminal event on the
// job's event stream and fetches the answer. It returns a nil answer
// when the operation failed; the error is the benchmark's own.
func (w *ecoWorkload) submit(n netlist, first bool) (*serve.Answer, int, error) {
	body, err := json.Marshal(map[string]string{"bench": n.text, "name": n.name, "heuristic": "heu1"})
	if err != nil {
		return nil, 0, err
	}
	env, tr := w.env, w.tr
	measuring := w.ops.measuring.Load()
	if !measuring {
		tr = nil
	}
	op := w.ops.start()
	t0 := time.Now()
	root := tr.begin("job", op, 0)
	s := tr.begin("serve.submit", op, root)
	var info serve.Info
	status, err := env.do("POST", "/v1/jobs", body, &info)
	tr.end(s)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit answered %d", status)
	}
	if err == nil {
		s = tr.begin("serve.events", op, root)
		err = env.await(info.ID)
		tr.end(s)
	}
	var ans serve.Answer
	if err == nil {
		s = tr.begin("serve.result", op, root)
		status, err = env.do("GET", "/v1/jobs/"+info.ID+"/result", nil, &ans)
		tr.end(s)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("result answered %d", status)
		}
	}
	lat := time.Since(t0)
	tr.end(root)
	kind, _, _ := strings.Cut(n.name, ".")
	switch {
	case !first:
		kind += ".copy"
	case err == nil:
		kind += "." + ans.Store
	}
	w.ops.done(kind, lat)
	if err != nil {
		w.ops.fail(op, "%s: %v", n.name, err)
		return nil, op, nil
	}
	if err := checkCounts(parseInt(ans.TotalPaths), parseInt(ans.RD), ans.Selected, n.paths); err != nil {
		w.ops.mismatch(op, "%s: %v", n.name, err)
	}
	if measuring && first {
		w.mu.Lock()
		w.outcomes[ans.Store]++
		w.mu.Unlock()
	}
	if tr != nil {
		w.mu.Lock()
		w.subs = append(w.subs, ecoSub{text: n.text, first: first, caller: lat, jobID: info.ID})
		w.mu.Unlock()
	}
	return &ans, op, nil
}

// do sends one JSON request and decodes the JSON reply into v.
func (env *ecoEnv) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, env.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// await reads the job's event stream until its terminal "done" frame.
func (env *ecoEnv) await(id string) error {
	resp, err := env.client.Get(env.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("event stream answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var info serve.Info
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &info); err != nil {
				return err
			}
			if info.State != serve.StateDone {
				return fmt.Errorf("job %s ended %s: %s", id, info.State, info.Error)
			}
			io.Copy(io.Discard, resp.Body) // let the connection be reused
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream of job %s ended without a done frame", id)
}

// sink receives every event of a traced run's server log.
func (w *ecoWorkload) sink(ev telemetry.Event) {
	if !w.ops.measuring.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nEvents++
	if ev.Kind == "job.shed" {
		w.shed++
	}
	if ev.Job == "" {
		return
	}
	if w.events == nil {
		w.events = map[string]map[string]time.Time{}
	}
	m := w.events[ev.Job]
	if m == nil {
		m = map[string]time.Time{}
		w.events[ev.Job] = m
	}
	m[ev.Kind] = ev.TS
}

// finish checks the sampled revisions against a direct whole-circuit
// core.Identify(Heuristic1) run and, traced, computes the layers.
func (w *ecoWorkload) finish(layers map[string]float64) error {
	for _, s := range w.samples {
		c, err := circuit.ParseBench(s.rev.name, strings.NewReader(s.rev.text))
		if err != nil {
			return err
		}
		rep, err := core.Identify(c, core.Heuristic1, core.Options{Workers: 1})
		if err != nil {
			w.ops.fail(s.op, "%s: direct run: %v", s.rev.name, err)
			continue
		}
		if rep.TotalLogicalPaths.String() != s.ans.TotalPaths || rep.Selected != s.ans.Selected || rep.RD.String() != s.ans.RD {
			w.ops.mismatch(s.op, "%s: served %s/%d/%s, a direct run gives %s/%d/%s", s.rev.name,
				s.ans.TotalPaths, s.ans.Selected, s.ans.RD, rep.TotalLogicalPaths, rep.Selected, rep.RD)
		}
	}
	fmt.Fprintf(w.cfg.log, "eco: %d revisions checked against a direct run; first-submission outcomes %v\n", len(w.samples), w.outcomes)
	if w.tr == nil {
		return nil
	}
	return w.replay(layers)
}

// replay computes the eco layers. Server-side queue and run times come
// from the event log; the store's costs from replaying every submitted
// netlist in order through store.HashFor and store.IdentifyThrough on a
// fresh store.
func (w *ecoWorkload) replay(layers map[string]float64) error {
	var queue, run, overhead time.Duration
	timed := 0
	for _, sub := range w.subs {
		m := w.events[sub.jobID]
		sub0, st, done := m["job.submitted"], m["job.start"], m["job.done"]
		if sub0.IsZero() || st.IsZero() || done.IsZero() {
			continue
		}
		timed++
		queue += st.Sub(sub0)
		run += done.Sub(st)
		overhead += sub.caller - done.Sub(st)
	}
	jobs := len(w.subs)
	self, _ := w.tr.selfTimes()
	layers["serve.submit_ms"] = perJob(ms(self["serve.submit"]), jobs)
	layers["serve.queue_wait_ms"] = perJob(ms(queue), timed)
	layers["serve.run_ms"] = perJob(ms(run), timed)
	layers["serve.overhead_ms"] = perJob(ms(overhead), timed)
	layers["serve.shed"] = float64(w.shed)
	layers["telemetry.events_per_job"] = perJob(float64(w.nEvents), jobs)

	dir := filepath.Join(w.cfg.work, "replay-store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	type tally struct {
		parse, hash, count, sort, walk time.Duration
		segments                       int64
		byOutcome                      map[string]time.Duration
		nOutcome                       map[string]int
		reused, cones                  int
	}
	fresh := func() tally {
		return tally{byOutcome: map[string]time.Duration{}, nOutcome: map[string]int{}}
	}
	t := fresh()
	replayOne := func(text string, first bool) error {
		t0 := time.Now()
		c, err := circuit.ParseBench("replay", strings.NewReader(text))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := store.HashFor(c); err != nil {
			return err
		}
		t2 := time.Now()
		t.parse += t1.Sub(t0)
		t.hash += t2.Sub(t1)
		if first {
			// Both are memoized per circuit, so the store call below
			// reuses them instead of paying for them inside its span.
			analysis.For(c).Logical()
			t3 := time.Now()
			core.Heuristic1Sort(c)
			t.count += t3.Sub(t2)
			t.sort += time.Since(t3)
		}
		t4 := time.Now()
		res, err := store.IdentifyThrough(st, c, store.Options{Heuristic: core.Heuristic1, Workers: 1})
		if err != nil {
			return err
		}
		d := time.Since(t4)
		t.byOutcome[res.Outcome] += d
		t.nOutcome[res.Outcome]++
		if res.Outcome != "hit" {
			t.walk += d
			t.segments += res.EnumeratedSegments
			if first {
				t.reused += res.ReusedCones
				t.cones += res.Cones
			}
		}
		return nil
	}
	for _, warm := range w.warm {
		for _, n := range warm {
			if err := replayOne(n.text, true); err != nil {
				return err
			}
		}
	}
	t = fresh() // the figures cover the measured submissions only
	before := dirBytes(dir)
	for _, sub := range w.subs {
		if err := replayOne(sub.text, sub.first); err != nil {
			return err
		}
	}
	layers["circuit.parse_ms"] = perJob(ms(t.parse), jobs)
	layers["store.hash_ms"] = perJob(ms(t.hash), jobs)
	layers["paths.count_ms"] = perJob(ms(t.count), jobs)
	layers["core.sort_ms"] = perJob(ms(t.sort), jobs)
	layers["store.hit_ms"] = perJob(ms(t.byOutcome["hit"]), t.nOutcome["hit"])
	layers["store.delta_ms"] = perJob(ms(t.byOutcome["delta"]), t.nOutcome["delta"])
	layers["store.miss_ms"] = perJob(ms(t.byOutcome["miss"]), t.nOutcome["miss"])
	if t.cones > 0 {
		layers["store.cone_reuse_ratio"] = float64(t.reused) / float64(t.cones)
	}
	layers["store.bytes_per_job"] = perJob(float64(dirBytes(dir)-before), jobs)
	layers["core.segments"] = perJob(float64(t.segments), jobs)
	if t.segments > 0 {
		layers["core.ns_per_segment"] = float64(t.walk.Nanoseconds()) / float64(t.segments)
	}
	fmt.Fprintf(w.cfg.log, "eco replay: measured outcomes %v\n", t.nOutcome)
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
