package serve

import (
	"encoding/json"
	"errors"
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"

	"rdfault/internal/analysis"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/faultinject"
	"rdfault/internal/gen"
)

// coneDispatch renders one cone of c plus the projected global sort as
// the wire-format request the fleet coordinator sends.
func coneDispatch(t *testing.T, c *circuit.Circuit, sort *circuit.InputSort, po circuit.GateID) ConeRequest {
	t.Helper()
	cone, mapping, err := c.Cone(po)
	if err != nil {
		t.Fatalf("Cone: %v", err)
	}
	proj := sort.Cone(mapping)
	return ConeRequest{
		Bench: benchOf(t, cone),
		Name:  cone.Name(),
		Sort:  proj.ByName(cone),
	}
}

// The serve-level merge invariant the whole fleet rests on: per-cone
// slices under the globally-computed sort, summed, reproduce the
// whole-circuit Selected/RD/Total bit-for-bit.
func TestConeAnswersSumToWholeCircuitRun(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	ref, err := core.Identify(c, core.Heuristic2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{MaxConeInFlight: 4})
	var selected int64
	total, rd := new(big.Int), new(big.Int)
	for _, po := range c.Outputs() {
		req := coneDispatch(t, c, sort, po)
		ans, err := s.Cone(req)
		if err != nil {
			t.Fatalf("cone %s: %v", req.Name, err)
		}
		if ans.Status != "complete" {
			t.Fatalf("cone %s ended %q", req.Name, ans.Status)
		}
		selected += ans.Selected
		addDecimal(t, total, ans.TotalPaths)
		addDecimal(t, rd, ans.RD)
	}
	if total.Cmp(ref.TotalLogicalPaths) != 0 || selected != ref.Selected || rd.Cmp(ref.RD) != 0 {
		t.Fatalf("merged total=%s selected=%d rd=%s; whole-circuit run says total=%s selected=%d rd=%s",
			total, selected, rd, ref.TotalLogicalPaths, ref.Selected, ref.RD)
	}
}

// The FS baseline needs no sort and must sum the same way.
func TestConeFSCriterionSums(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	ref, err := core.Identify(c, core.HeuristicFUS, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	var selected int64
	total := new(big.Int)
	for _, po := range c.Outputs() {
		cone, _, err := c.Cone(po)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := s.Cone(ConeRequest{Bench: benchOf(t, cone), Name: cone.Name(), Criterion: "FS"})
		if err != nil {
			t.Fatalf("cone %s: %v", cone.Name(), err)
		}
		selected += ans.Selected
		addDecimal(t, total, ans.TotalPaths)
	}
	if total.Cmp(ref.TotalLogicalPaths) != 0 || selected != ref.Selected {
		t.Fatalf("merged total=%s selected=%d; whole-circuit FS run says total=%s selected=%d",
			total, selected, ref.TotalLogicalPaths, ref.Selected)
	}
}

// A slice chain — dispatch, expire, resume from the returned checkpoint,
// repeat — must land on exactly the counters of an uninterrupted run.
// This is the failover path: any later slice could run on a different
// worker, since both sides parse the same bench text.
func TestConeSliceChainMatchesOneShot(t *testing.T) {
	c := gen.RippleAdder(6, gen.XorNAND)
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}
	outs := c.Outputs()
	req := coneDispatch(t, c, sort, outs[len(outs)-1]) // the widest cone

	s := newTestServer(t, Config{})
	oneShot, err := s.Cone(req)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Status != "complete" {
		t.Fatalf("one-shot run ended %q", oneShot.Status)
	}

	// Slow every enumeration task so 5ms slices genuinely expire.
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointWorker,
		Kind:  faultinject.KindSleep,
		Delay: time.Millisecond,
	})
	restore := faultinject.Activate(plan)
	defer restore()

	var final *ConeAnswer
	interrupted := 0
	chain := req
	chain.SliceMS = 5
	chain.Workers = 1
	for hop := 0; ; hop++ {
		if hop > 500 {
			t.Fatalf("slice chain made no progress after %d hops", hop)
		}
		ans, err := s.Cone(chain)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if hop > 0 && !ans.Resumed {
			t.Fatalf("hop %d not marked resumed", hop)
		}
		if ans.Status == "complete" {
			final = ans
			break
		}
		if ans.Status != "deadline" && ans.Status != "canceled" {
			t.Fatalf("hop %d ended %q", hop, ans.Status)
		}
		if len(ans.Checkpoint) == 0 {
			t.Fatalf("hop %d interrupted without a checkpoint", hop)
		}
		interrupted++
		chain.Checkpoint = ans.Checkpoint
	}
	if interrupted == 0 {
		t.Fatalf("no slice expired; the chain proved nothing")
	}
	if final.TotalPaths != oneShot.TotalPaths || final.Selected != oneShot.Selected ||
		final.RD != oneShot.RD || final.Segments != oneShot.Segments {
		t.Fatalf("chained run total=%s selected=%d rd=%s segments=%d; one-shot total=%s selected=%d rd=%s segments=%d",
			final.TotalPaths, final.Selected, final.RD, final.Segments,
			oneShot.TotalPaths, oneShot.Selected, oneShot.RD, oneShot.Segments)
	}
}

// An unusable checkpoint must answer the typed 422 error — corrupt bytes
// and wrong-circuit fingerprints both land there, never a wrong answer.
func TestConeBadCheckpointIsTyped(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	req := coneDispatch(t, c, sort, c.Outputs()[0])

	req.Checkpoint = json.RawMessage(`{"version":999,"garbage":true}`)
	if _, err := s.Cone(req); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("corrupt checkpoint: got %v, want ErrBadCheckpoint", err)
	}

	// A valid checkpoint from a different cone must be rejected by the
	// fingerprint, not silently resumed.
	other := coneDispatch(t, c, sort, c.Outputs()[1])
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointWorker,
		Kind:  faultinject.KindSleep,
		Delay: time.Millisecond,
	})
	restore := faultinject.Activate(plan)
	other.SliceMS = 1
	other.Workers = 1
	ans, err := s.Cone(other)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Checkpoint) == 0 {
		t.Skip("slice completed before expiring; no foreign checkpoint to test with")
	}
	req.Checkpoint = ans.Checkpoint
	if _, err := s.Cone(req); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("foreign checkpoint: got %v, want ErrBadCheckpoint", err)
	}
}

// The cone lane sheds load with its own saturation error and counts the
// shed in Health — the fleet's backpressure signal.
func TestConeLaneSheds(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{MaxConeInFlight: 1})
	req := coneDispatch(t, c, sort, c.Outputs()[0])

	// Wedge the first slice inside its budget reservation so the lane is
	// provably occupied when the second arrives.
	plan := faultinject.NewPlan(faultinject.Rule{
		Point: faultinject.PointBudgetReserve,
		Kind:  faultinject.KindSleep,
		Delay: 300 * time.Millisecond,
		Hit:   1,
	})
	restore := faultinject.Activate(plan)
	defer restore()

	done := make(chan error, 1)
	go func() {
		_, err := s.Cone(req)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Health().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first slice never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	var sat *SaturatedError
	_, err = s.Cone(req)
	if !errors.As(err, &sat) || sat.Lane != "cone" {
		t.Fatalf("second slice got %v, want cone-lane saturation", err)
	}
	if got := s.Health().Shed; got != 1 {
		t.Fatalf("Health.Shed = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("wedged slice failed: %v", err)
	}
}

// A group request — the whole netlist, outputs addressed by position —
// answers every requested cone exactly as today's per-cone request does.
// The ripple adder's outputs come back from the .bench round trip under
// their drivers' names, which is why requests address them by position.
func TestConeGroupRequestMatchesPerConeRequests(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := circuit.ParseBench(c.Name(), strings.NewReader(benchOf(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Gate(parsed.Outputs()[0]).Name == c.Gate(c.Outputs()[0]).Name {
		t.Fatal("output names survive the round trip; the test no longer shows positional addressing")
	}
	s := newTestServer(t, Config{})
	var perCone []*ConeAnswer
	for _, po := range c.Outputs() {
		ans, err := s.Cone(coneDispatch(t, c, sort, po))
		if err != nil {
			t.Fatal(err)
		}
		perCone = append(perCone, ans)
	}
	for _, outputs := range [][]int{nil, {4, 0, 2}} {
		ans, err := s.Cone(ConeRequest{Bench: benchOf(t, c), Name: c.Name(), Outputs: outputs, Sort: sort.ByName(c)})
		if err != nil {
			t.Fatal(err)
		}
		if outputs == nil {
			outputs = []int{0, 1, 2, 3, 4}
		}
		if ans.Status != "complete" || !ans.Verify() || len(ans.Cones) != len(outputs) {
			t.Fatalf("group %v: status %q, %d cone answers", outputs, ans.Status, len(ans.Cones))
		}
		var selected, segments int64
		for k, pos := range outputs {
			got, want := ans.Cones[k], perCone[pos]
			if !got.Verify() || got.TotalPaths != want.TotalPaths || got.Selected != want.Selected ||
				got.RD != want.RD || got.Segments != want.Segments || got.Pruned != want.Pruned {
				t.Fatalf("group %v, output %d: got %+v, per-cone request %+v", outputs, pos, got, want)
			}
			if got.Circuit != c.Name()+"."+parsed.Gate(parsed.Outputs()[pos]).Name {
				t.Fatalf("output %d answered as %q", pos, got.Circuit)
			}
			selected += got.Selected
			segments += got.Segments
		}
		// The walk shares prefixes among its cones, so it extends no more
		// segments than the cones sum to.
		if ans.Selected != selected || ans.Segments > segments {
			t.Fatalf("group %v: walk selected=%d segments=%d, cones sum to %d/%d",
				outputs, ans.Selected, ans.Segments, selected, segments)
		}
	}
}

// A request without Outputs on a one-output cone netlist is today's
// request: its walk counters are the cone's Enumerate counters.
func TestConeEmptyOutputsOnConeNetlist(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	for _, po := range c.Outputs() {
		req := coneDispatch(t, c, sort, po)
		ans, err := s.Cone(req)
		if err != nil {
			t.Fatal(err)
		}
		cone, mapping, err := c.Cone(po)
		if err != nil {
			t.Fatal(err)
		}
		proj := sort.Cone(mapping)
		want, err := core.Enumerate(cone, core.SigmaPi, core.Options{Sort: &proj})
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*ConeAnswer{ans, ans.Cones[0]} {
			if got.TotalPaths != want.Total.String() || got.Selected != want.Selected || got.RD != want.RD.String() ||
				got.Segments != want.Segments || got.Pruned != want.Pruned {
				t.Fatalf("%s: answer %+v, Enumerate total=%v selected=%d rd=%v segments=%d pruned=%d",
					req.Name, got, want.Total, want.Selected, want.RD, want.Segments, want.Pruned)
			}
		}
		if ans.Circuit != req.Name || len(ans.Cones) != 1 {
			t.Fatalf("%s: answered as %q with %d cones", req.Name, ans.Circuit, len(ans.Cones))
		}
	}
}

// Output positions out of range or repeated are a malformed request:
// 400, not a walk.
func TestConeBadOutputPositions(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, outputs := range [][]int{{-1}, {5}, {0, 3, 0}} {
		body, err := json.Marshal(ConeRequest{Bench: benchOf(t, c), Name: c.Name(), Criterion: "FS", Outputs: outputs})
		if err != nil {
			t.Fatal(err)
		}
		if rec := do(h, "POST", "/v1/cone", string(body)); rec.Code != http.StatusBadRequest {
			t.Fatalf("outputs %v: %d %s, want 400", outputs, rec.Code, rec.Body)
		}
	}
}

// Every dispatch parses a new circuit version that nothing looks up
// again; the lane releases its analysis, so the registry does not grow.
func TestConeLaneReleasesAnalysis(t *testing.T) {
	c := gen.RippleAdder(4, gen.XorNAND)
	sort, err := core.HeuristicSort(c, core.Heuristic2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	req := ConeRequest{Bench: benchOf(t, c), Name: c.Name(), Sort: sort.ByName(c)}
	before := analysis.Len()
	for i := 0; i < 50; i++ {
		req.Outputs = []int{i % 5}
		if _, err := s.Cone(req); err != nil {
			t.Fatal(err)
		}
	}
	if after := analysis.Len(); after != before {
		t.Fatalf("analysis registry holds %d circuits after 50 dispatches, %d before", after, before)
	}
}

// addDecimal accumulates a decimal string counter into sum.
func addDecimal(t *testing.T, sum *big.Int, s string) {
	t.Helper()
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		t.Fatalf("bad decimal counter %q", s)
	}
	sum.Add(sum, v)
}
