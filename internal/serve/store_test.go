package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/gen"
	"rdfault/internal/store"
	"rdfault/internal/synth"
	"rdfault/internal/telemetry"
)

func newStoreServer(t *testing.T, cfg Config) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "rdstore"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	return newTestServer(t, cfg), st
}

// A store-backed fast job answers normally on first sight and serves a
// relabeled resubmission as a pure hit: same counters, zero enumeration,
// labeled tier reason, lookup metrics and store.hit event.
func TestServeStoreHitOnResubmission(t *testing.T) {
	var events bytes.Buffer
	s, st := newStoreServer(t, Config{Telemetry: telemetry.NewLog(&events)})

	c := gen.ALU(6, gen.XorNAND)
	j1, err := s.Submit(Request{Bench: benchOf(t, c), Name: "alu", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := waitJob(t, j1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Store != "miss" {
		t.Fatalf("first submission store label %q, want miss", cold.Store)
	}

	// Resubmit relabeled: byte-different netlist, same circuit.
	r, _, err := synth.Relabel(c, 17)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(Request{Bench: benchOf(t, r), Name: "alu-v2", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := waitJob(t, j2, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Store != "hit" || warm.TierReason != "store hit" {
		t.Fatalf("resubmission store=%q reason=%q, want a store hit", warm.Store, warm.TierReason)
	}
	if warm.TotalPaths != cold.TotalPaths || warm.Selected != cold.Selected || warm.RD != cold.RD {
		t.Fatalf("hit served different counters: %+v vs %+v", warm, cold)
	}
	// The hit reports the counters it served, frozen: the cold job's.
	// (That it walked nothing is the store.hit event checked below.)
	if p1, p2 := j1.Progress(), j2.Progress(); p2 != p1 || !p2.Final || p2.Selected != warm.Selected {
		t.Fatalf("store hit progress %+v, cold job %+v, answer selected %d", p2, p1, warm.Selected)
	}
	if st.Stats().Hits == 0 {
		t.Fatal("store handle recorded no hits")
	}

	var dump bytes.Buffer
	s.Metrics().WritePrometheus(&dump)
	for _, want := range []string{
		`rd_serve_store_lookups_total{outcome="miss"} 1`,
		`rd_serve_store_lookups_total{outcome="hit"} 1`,
	} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, dump.String())
		}
	}
	evs, err := telemetry.ParseJSONL(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds["store.miss"] != 1 || kinds["store.hit"] != 1 {
		t.Fatalf("store events %v, want one miss and one hit", kinds)
	}
}

// An ECO revision of a stored circuit is served as a delta: changed
// cones fresh, the rest from the store, counters equal to a cold run.
func TestServeStoreDeltaOnECO(t *testing.T) {
	s, _ := newStoreServer(t, Config{})
	base := gen.ALU(6, gen.XorNAND)
	revised, _, err := store.MutateKCones(base, 1, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Cold reference on a store-less server.
	ref := newTestServer(t, Config{})
	jr, err := ref.Submit(Request{Bench: benchOf(t, revised), Name: "ref", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := waitJob(t, jr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	for _, sub := range []struct {
		bench, name, store string
	}{
		{benchOf(t, base), "base", "miss"},
		{benchOf(t, revised), "revised", "delta"},
	} {
		j, err := s.Submit(Request{Bench: sub.bench, Name: sub.name, Heuristic: "heu1", Tier: "fast"})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := waitJob(t, j, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Store != sub.store {
			t.Fatalf("%s: store label %q, want %q (reason %q)", sub.name, ans.Store, sub.store, ans.TierReason)
		}
		if sub.store == "delta" {
			if ans.TotalPaths != want.TotalPaths || ans.Selected != want.Selected || ans.RD != want.RD {
				t.Fatalf("delta diverges from cold run: %+v vs %+v", ans, want)
			}
			if !strings.HasPrefix(ans.TierReason, "store delta: reused ") {
				t.Fatalf("delta reason %q", ans.TierReason)
			}
		}
	}
}

// Corrupt store entries under the serving path degrade to
// recomputation: correct counters, rd_serve_store_corrupt_total > 0.
func TestServeStoreCorruptDegrades(t *testing.T) {
	s, _ := newStoreServer(t, Config{})
	c := gen.ALU(6, gen.XorNAND)

	// Populate with rotting writes.
	restore := faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointStoreCorrupt,
		Kind:  faultinject.KindCorrupt,
		Seed:  7,
	}))
	j1, err := s.Submit(Request{Bench: benchOf(t, c), Name: "alu", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		restore()
		t.Fatal(err)
	}
	cold, err := waitJob(t, j1, 30*time.Second)
	restore()
	if err != nil {
		t.Fatal(err)
	}

	j2, err := s.Submit(Request{Bench: benchOf(t, c), Name: "alu", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := waitJob(t, j2, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalPaths != cold.TotalPaths || warm.Selected != cold.Selected || warm.RD != cold.RD {
		t.Fatal("corrupt store changed the served answer")
	}
	var dump bytes.Buffer
	s.Metrics().WritePrometheus(&dump)
	if !strings.Contains(dump.String(), "rd_serve_store_corrupt_total") ||
		strings.Contains(dump.String(), "rd_serve_store_corrupt_total 0\n") {
		t.Fatalf("corrupt counter did not move:\n%s", dump.String())
	}
}

// Without a store the fast rung is byte-for-byte the old path: no Store
// label, no store metrics movement.
func TestServeNoStoreUnchanged(t *testing.T) {
	s := newTestServer(t, Config{})
	j, err := s.Submit(Request{Bench: benchOf(t, gen.PaperExample()), Name: "paper", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := waitJob(t, j, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Store != "" || ans.TierReason != "requested" {
		t.Fatalf("store-less answer carries store state: %+v", ans)
	}
	rep, err := core.Identify(gen.PaperExample(), core.Heuristic1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.RD != rep.RD.String() {
		t.Fatalf("RD %s, want %s", ans.RD, rep.RD.String())
	}
}

// A finished job drops its parsed netlist (a server keeps every job for
// lookups, so a retained circuit per job grows without bound), while
// the job lookup, the result and the event stream still report the
// same circuit name and answer.
func TestServeStoreFinishedJobReleasesCircuit(t *testing.T) {
	s, _ := newStoreServer(t, Config{StreamInterval: 2 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(Request{Bench: benchOf(t, gen.ALU(4, gen.XorNAND)), Name: "alu-eco", Heuristic: "heu1", Tier: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := waitJob(t, j, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	held := j.circuit != nil
	j.mu.Unlock()
	if held {
		t.Fatal("finished job still holds its parsed circuit")
	}
	if want.Circuit != "alu-eco" {
		t.Fatalf("answer names circuit %q", want.Circuit)
	}

	h := s.Handler()
	var info Info
	if rec := do(h, "GET", "/v1/jobs/"+j.ID, ""); rec.Code != http.StatusOK {
		t.Fatalf("job lookup: %d %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Circuit != want.Circuit || info.State != StateDone {
		t.Fatalf("job lookup reports %+v", info)
	}
	var got Answer
	if rec := do(h, "GET", "/v1/jobs/"+j.ID+"/result", ""); rec.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Circuit != want.Circuit || got.TotalPaths != want.TotalPaths || got.Selected != want.Selected || got.RD != want.RD {
		t.Fatalf("result %+v, job answered %+v", got, want)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, bufio.NewScanner(resp.Body), 10)
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("stream of a finished job: %+v", frames)
	}
	var streamed Info
	if err := json.Unmarshal([]byte(frames[len(frames)-1].data), &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.Circuit != want.Circuit || streamed.State != StateDone ||
		streamed.Progress == nil || *streamed.Progress != *info.Progress {
		t.Fatalf("streamed done frame %+v, job lookup %+v", streamed, info)
	}
}

// A store-served job reports the counters it was served as its
// progress: the job lookup, the SSE done frame and the job.done event
// of a miss and of the hit that follows carry the answer's Selected.
func TestServeStoreJobProgressCarriesAnswer(t *testing.T) {
	var events bytes.Buffer
	s, _ := newStoreServer(t, Config{StreamInterval: 2 * time.Millisecond, Telemetry: telemetry.NewLog(&events)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := s.Handler()

	c := gen.ALU(4, gen.XorNAND)
	for _, want := range []string{"miss", "hit"} {
		j, err := s.Submit(Request{Bench: benchOf(t, c), Name: "alu-" + want, Heuristic: "heu1", Tier: "fast"})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := waitJob(t, j, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Store != want || ans.Selected != 820 {
			t.Fatalf("%s: store %q, selected %d; ALU(4) under Heuristic 1 selects 820", want, ans.Store, ans.Selected)
		}

		var info Info
		if rec := do(h, "GET", "/v1/jobs/"+j.ID, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: job lookup: %d %s", want, rec.Code, rec.Body)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Progress == nil || !info.Progress.Final || info.Progress.Selected != ans.Selected {
			t.Fatalf("%s: job lookup progress %+v, answer selected %d", want, info.Progress, ans.Selected)
		}

		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		frames := readFrames(t, bufio.NewScanner(resp.Body), 10)
		resp.Body.Close()
		var streamed Info
		if len(frames) == 0 || frames[len(frames)-1].event != "done" {
			t.Fatalf("%s: stream %+v", want, frames)
		}
		if err := json.Unmarshal([]byte(frames[len(frames)-1].data), &streamed); err != nil {
			t.Fatal(err)
		}
		if streamed.Progress == nil || *streamed.Progress != *info.Progress {
			t.Fatalf("%s: done frame progress %+v, job lookup %+v", want, streamed.Progress, info.Progress)
		}
	}

	evs, err := telemetry.ParseJSONL(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, ev := range evs {
		if ev.Kind == "job.done" {
			done++
			if ev.Fields["selected"] != 820 {
				t.Fatalf("job.done event %+v does not carry the answer's selected 820", ev)
			}
		}
	}
	if done != 2 {
		t.Fatalf("%d job.done events, want 2", done)
	}
}
