package actuary_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipletactuary"
)

// mustJSON renders v through the canonical wire marshalers — the
// byte-identity yardstick of the checkpoint tests.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// TestSweepCheckpointResumeProperty is the checkpoint round-trip
// property test: for random grids, random interrupt points and shard
// counts 1..3, a walk resumed from a mid-run checkpoint — after a
// trip through the wire form, as a real resume takes — produces a
// SweepBest byte-identical to the uninterrupted walk's.
func TestSweepCheckpointResumeProperty(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	nodePool := []string{"5nm", "7nm", "12nm", "28nm"}
	schemePool := []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD, actuary.InFO}
	pick := func(n int) int { return 1 + rng.Intn(n) }
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		grid := &actuary.SweepGrid{
			Name:       fmt.Sprintf("cp%d", trial),
			Nodes:      append([]string(nil), nodePool[:pick(len(nodePool))]...),
			Schemes:    append([]actuary.Scheme(nil), schemePool[:pick(len(schemePool))]...),
			Quantities: []float64{1e5, 1e6}[:pick(2)],
			D2D:        actuary.D2DFraction(0.10),
		}
		for i := 0; i < pick(4); i++ {
			grid.AreasMM2 = append(grid.AreasMM2, 150+float64(i)*240) // up to 870: some prune
		}
		for k := 1; k <= pick(5); k++ {
			grid.Counts = append(grid.Counts, k)
		}
		for n := 1; n <= 3; n++ {
			req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: grid, TopK: 3}
			if n > 1 {
				req.ShardIndex, req.ShardCount = rng.Intn(n), n
			}
			// Reference: the same request through the ordinary batch path.
			want := s.Evaluate(ctx, []actuary.Request{req})[0]
			if want.Err != nil {
				t.Fatalf("trial %d n=%d: reference failed: %v", trial, n, want.Err)
			}

			// Collect every checkpoint a full checkpointed walk emits.
			var saved []*actuary.SweepCheckpoint
			got, err := s.SweepBestCheckpointed(ctx, req, nil, 2,
				func(cp *actuary.SweepCheckpoint) error {
					data, err := json.Marshal(cp)
					if err != nil {
						return err
					}
					back := new(actuary.SweepCheckpoint)
					if err := json.Unmarshal(data, back); err != nil {
						return err
					}
					saved = append(saved, back)
					return nil
				})
			if err != nil {
				t.Fatalf("trial %d n=%d: checkpointed walk failed: %v", trial, n, err)
			}
			if mustJSON(t, got) != mustJSON(t, want.SweepBest) {
				t.Fatalf("trial %d n=%d: fresh checkpointed walk diverged from Evaluate", trial, n)
			}
			if len(saved) == 0 {
				t.Fatalf("trial %d n=%d: walk emitted no checkpoints", trial, n)
			}

			// Resume from a random interrupt point (and from the very
			// first and last snapshots — the boundary cases).
			picks := map[int]bool{0: true, len(saved) - 1: true, rng.Intn(len(saved)): true}
			for i := range picks {
				resumed, err := s.SweepBestCheckpointed(ctx, req, saved[i], 3, nil)
				if err != nil {
					t.Fatalf("trial %d n=%d: resume from checkpoint %d: %v", trial, n, i, err)
				}
				if mustJSON(t, resumed) != mustJSON(t, want.SweepBest) {
					t.Fatalf("trial %d n=%d: resume from checkpoint %d diverged:\n got %s\nwant %s",
						trial, n, i, mustJSON(t, resumed), mustJSON(t, want.SweepBest))
				}
			}
		}
	}
}

// TestSweepCheckpointCarriesFailures checks that the first-failure
// bookkeeping survives a checkpoint boundary: interrupting after the
// failing candidate and resuming reports the same failure (code and
// position) an uninterrupted walk does.
func TestSweepCheckpointCarriesFailures(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	grid := &actuary.SweepGrid{
		Name:       "failing",
		Nodes:      []string{"nope", "5nm"}, // unknown node fails every "nope" point
		Schemes:    []actuary.Scheme{actuary.MCM},
		AreasMM2:   []float64{400},
		Counts:     []int{1, 2, 3},
		Quantities: []float64{1e6},
	}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: grid, TopK: 2}
	ctx := context.Background()
	want := s.Evaluate(ctx, []actuary.Request{req})[0]
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	var saved []*actuary.SweepCheckpoint
	if _, err := s.SweepBestCheckpointed(ctx, req, nil, 1, func(cp *actuary.SweepCheckpoint) error {
		data, _ := json.Marshal(cp)
		back := new(actuary.SweepCheckpoint)
		if err := json.Unmarshal(data, back); err != nil {
			return err
		}
		saved = append(saved, back)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Resume from a snapshot past the failing stretch: FirstFailure
	// crossed the checkpoint in the structured form.
	last := saved[len(saved)-1]
	if last.FirstFailure == nil {
		t.Fatal("checkpoint after the failing candidates lost FirstFailure")
	}
	resumed, err := s.SweepBestCheckpointed(ctx, req, last, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Infeasible != want.SweepBest.Infeasible ||
		resumed.FirstFailureCandidate != want.SweepBest.FirstFailureCandidate {
		t.Fatalf("resumed failure accounting (%d infeasible, candidate %d) != uninterrupted (%d, %d)",
			resumed.Infeasible, resumed.FirstFailureCandidate,
			want.SweepBest.Infeasible, want.SweepBest.FirstFailureCandidate)
	}
	ae, ok := actuary.AsError(resumed.FirstFailure)
	if !ok || ae.Code != actuary.ErrUnknownNode {
		t.Fatalf("resumed FirstFailure lost its classification: %v", resumed.FirstFailure)
	}
}

// TestSweepCheckpointRejects covers the resume guard rails: a
// checkpoint from another workload, a corrupt cursor, and a failing
// save callback.
func TestSweepCheckpointRejects(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grid := testGrid([]float64{400, 800}, []int{1, 2, 4})
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 2}

	var cp *actuary.SweepCheckpoint
	if _, err := s.SweepBestCheckpointed(ctx, req, nil, 1, func(c *actuary.SweepCheckpoint) error {
		if cp == nil {
			data, _ := json.Marshal(c)
			cp = new(actuary.SweepCheckpoint)
			return json.Unmarshal(data, cp)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Same grid, different top-K bound: a different workload.
	other := req
	other.TopK = 5
	if _, err := s.SweepBestCheckpointed(ctx, other, cp, 1, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
		t.Fatalf("resume with a different top-K: %v, want ErrCheckpointMismatch", err)
	}
	// A cursor outside the grid.
	bad := *cp
	bad.Cursor.Candidate = grid.Size() + 7
	if _, err := s.SweepBestCheckpointed(ctx, req, &bad, 1, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
		t.Fatalf("resume past the grid: %v, want ErrCheckpointMismatch", err)
	}
	// Aggregator state no live run could have produced.
	bad = *cp
	bad.Top = append(append([]actuary.SweepPoint(nil), cp.Top...), cp.Top...)
	for len(bad.Top) <= req.TopK {
		bad.Top = append(bad.Top, bad.Top...)
	}
	if _, err := s.SweepBestCheckpointed(ctx, req, &bad, 1, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
		t.Fatalf("resume with an over-full top list: %v, want ErrCheckpointMismatch", err)
	}
	// A save error aborts the walk.
	boom := errors.New("disk full")
	if _, err := s.SweepBestCheckpointed(ctx, req, nil, 1, func(*actuary.SweepCheckpoint) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing save: %v, want the save error", err)
	}
	// Wrong question.
	if _, err := s.SweepBestCheckpointed(ctx, actuary.Request{Question: actuary.QuestionRE}, nil, 1, nil); err == nil {
		t.Fatal("non-sweep-best request should be rejected")
	}
}

// TestCheckpointWireStrictness: corrupt or drifted checkpoint files
// must fail decode, not resume wrong.
func TestCheckpointWireStrictness(t *testing.T) {
	valid := `{"version":1,"fingerprint":"f","cursor":{"candidate":0,"stats":{"generated":0}},"summary":{"count":0,"min":0,"max":0,"sum":0}}`
	var cp actuary.SweepCheckpoint
	if err := json.Unmarshal([]byte(valid), &cp); err != nil {
		t.Fatalf("valid sweep checkpoint rejected: %v", err)
	}
	cases := []string{
		`{"version":2,"fingerprint":"f","cursor":{"candidate":0,"stats":{}},"summary":{"count":0,"min":0,"max":0,"sum":0}}`,           // future version
		`{"fingerprint":"f","cursor":{"candidate":0,"stats":{}},"summary":{"count":0,"min":0,"max":0,"sum":0}}`,                       // missing version
		`{"version":1,"fingerprint":"f","cursor":{"candidate":0,"stats":{}},"summary":{"count":0,"min":0,"max":0,"sum":0},"extra":1}`, // unknown field
		`{"version":1,"fingerprint":"f","cursor":{"candidate":0,"stats":{"bogus":1}},"summary":{"count":0,"min":0,"max":0,"sum":0}}`,  // unknown nested field
		`{"version":1`, // torn write
	}
	for _, c := range cases {
		var cp actuary.SweepCheckpoint
		if err := json.Unmarshal([]byte(c), &cp); err == nil {
			t.Errorf("sweep checkpoint %q decoded without error", c)
		}
	}

	var sc actuary.StreamCheckpoint
	if err := json.Unmarshal([]byte(`{"version":1,"fingerprint":"f","next":3}`), &sc); err != nil {
		t.Fatalf("valid stream checkpoint rejected: %v", err)
	}
	for _, c := range []string{
		`{"version":9,"fingerprint":"f","next":0}`,
		`{"version":1,"fingerprint":"f","next":-1}`,
		`{"version":1,"fingerprint":"f","next":0,"top_k":{"k":0,"seen":0}}`,
		`{"version":1,"fingerprint":"f","next":0,"stats":{"ok":1,"cost":{"count":1,"min":0,"max":0,"sum":0},"woo":2}}`,
	} {
		var sc actuary.StreamCheckpoint
		if err := json.Unmarshal([]byte(c), &sc); err == nil {
			t.Errorf("stream checkpoint %q decoded without error", c)
		}
	}

	var cc actuary.CoordinatorCheckpoint
	if err := json.Unmarshal([]byte(`{"version":1,"fingerprint":"f","shards":4}`), &cc); err != nil {
		t.Fatalf("valid coordinator checkpoint rejected: %v", err)
	}
	for _, c := range []string{
		`{"version":0,"fingerprint":"f","shards":4}`,
		`{"version":1,"fingerprint":"f","shards":0}`,
		`{"version":1,"fingerprint":"f","shards":2,"completed":[{"shard":5,"best":{"top":null,"pareto":null,"summary":{"count":0,"min":0,"max":0,"sum":0}}}]}`,
		`{"version":1,"fingerprint":"f","shards":2,"completed":[{"shard":1,"best":null}]}`,
	} {
		var cc actuary.CoordinatorCheckpoint
		if err := json.Unmarshal([]byte(c), &cc); err == nil {
			t.Errorf("coordinator checkpoint %q decoded without error", c)
		}
	}
}

// TestSweepFingerprint pins the identity semantics: requests that walk
// the same workload share a fingerprint, anything that changes the
// walk or the ranking changes it.
func TestSweepFingerprint(t *testing.T) {
	grid := testGrid([]float64{400}, []int{1, 2})
	base := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 3}
	fp := func(r actuary.Request) string {
		t.Helper()
		s, err := actuary.SweepFingerprint(r)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := base
	same.ID = "relabelled" // IDs are bookkeeping, not workload
	if fp(base) != fp(same) {
		t.Error("relabelling a request changed its fingerprint")
	}
	zeroK := base
	zeroK.TopK = 0 // normalized to 1...
	oneK := base
	oneK.TopK = 1 // ...so 0 and 1 agree
	if fp(zeroK) != fp(oneK) {
		t.Error("TopK 0 and 1 should share a fingerprint")
	}
	for name, change := range map[string]func(*actuary.Request){
		"top-k":  func(r *actuary.Request) { r.TopK = 9 },
		"shard":  func(r *actuary.Request) { r.ShardIndex, r.ShardCount = 1, 2 },
		"policy": func(r *actuary.Request) { r.Policy = actuary.PerInstance },
		"grid": func(r *actuary.Request) {
			g := testGrid([]float64{401}, []int{1, 2})
			r.Grid = &g
		},
	} {
		changed := base
		change(&changed)
		if fp(base) == fp(changed) {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	if _, err := actuary.SweepFingerprint(actuary.Request{Question: actuary.QuestionSweepBest}); err == nil {
		t.Error("fingerprinting without a grid should fail")
	}
}

// TestSaveLoadCheckpointFile covers the file round trip: atomic save,
// strict load, and the not-exist signal a fresh run keys on.
func TestSaveLoadCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	if err := actuary.LoadCheckpointFile(path, new(actuary.SweepCheckpoint)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
	cp := &actuary.SweepCheckpoint{
		Fingerprint: "abc",
		Cursor:      actuary.SweepCursor{Candidate: 5, Stats: actuary.SweepStats{Generated: 3, Pruned: 2}},
		Summary:     actuary.SweepSummary{Count: 3, Min: 1, Max: 2, MinID: "a", MaxID: "b", Sum: 4.5},
	}
	if err := actuary.SaveCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	back := new(actuary.SweepCheckpoint)
	if err := actuary.LoadCheckpointFile(path, back); err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, back) != mustJSON(t, cp) {
		t.Fatalf("file round trip diverged: %s != %s", mustJSON(t, back), mustJSON(t, cp))
	}
	// No temp droppings left beside the checkpoint.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want just the checkpoint", len(entries))
	}
	// A corrupt file fails the load loudly.
	if err := os.WriteFile(path, []byte(`{"version":1`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := actuary.LoadCheckpointFile(path, new(actuary.SweepCheckpoint)); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file: %v, want a decode error", err)
	}
}

// TestStreamCheckpointResume is the local-stream acceptance test:
// a scenario stream interrupted mid-flight and resumed from its last
// checkpoint ends with aggregates byte-identical to an uninterrupted
// run — across a session boundary, as a process restart would be.
func TestStreamCheckpointResume(t *testing.T) {
	cfg := actuary.ScenarioConfig{
		Name:      "resume-me",
		Questions: []string{"total-cost"},
		Sweeps: []actuary.SweepConfig{{
			Name: "sw", Nodes: []string{"5nm", "7nm"}, Scheme: "MCM", D2DFraction: 0.10,
			Quantity: 1_000_000, AreasMM2: []float64{200, 400, 600, 800}, Counts: []int{1, 2, 3, 4},
		}},
	}
	fingerprint, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference, reduced through the same aggregators.
	run := func(s *actuary.Session, cp *actuary.StreamCheckpoint, ctx context.Context,
		save func(*actuary.StreamCheckpoint) error) error {
		src, err := cfg.Source()
		if err != nil {
			return err
		}
		ch, err := s.Stream(ctx, src, actuary.StreamSpec{ResumeAt: cp.Next, Ordered: true})
		if err != nil {
			return err
		}
		_, err = actuary.ReduceCheckpointed(ch, cp, 3, save)
		return err
	}
	sref, err := actuary.NewSession(actuary.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	want := actuary.NewStreamCheckpoint(fingerprint, 3)
	if err := run(sref, want, context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the second save, then resume from
	// the last snapshot on a fresh session.
	s1, err := actuary.NewSession(actuary.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *actuary.StreamCheckpoint
	saves := 0
	err = run(s1, actuary.NewStreamCheckpoint(fingerprint, 3), ctx,
		func(cp *actuary.StreamCheckpoint) error {
			data, err := json.Marshal(cp)
			if err != nil {
				return err
			}
			back := new(actuary.StreamCheckpoint)
			if err := json.Unmarshal(data, back); err != nil {
				return err
			}
			last = back
			if saves++; saves == 2 {
				cancel() // the "kill": nothing after this save may count
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint saved before the interruption")
	}
	if last.Next >= want.Next {
		t.Fatalf("interrupted run accounted %d results, reference only %d — cancel came too late to test anything",
			last.Next, want.Next)
	}
	if last.Fingerprint != fingerprint {
		t.Fatalf("checkpoint fingerprint %q != scenario fingerprint %q", last.Fingerprint, fingerprint)
	}

	s2, err := actuary.NewSession(actuary.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(s2, last, context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, last) != mustJSON(t, want) {
		t.Fatalf("resumed aggregates diverged:\n got %s\nwant %s", mustJSON(t, last), mustJSON(t, want))
	}
	if last.TopK.Seen() == 0 || len(last.TopK.Results()) == 0 {
		t.Fatal("resumed checkpoint is empty — the test proved nothing")
	}
}

// TestScenarioResumeLocalBackend checks client.Local's resume parity
// through the scenario Resume field: ordered delivery, index offset,
// and no re-evaluation of the skipped prefix.
func TestScenarioResumeLocalBackend(t *testing.T) {
	// Exercised in client/server tests too; here we pin the
	// ScenarioConfig-level semantics.
	cfg := actuary.ScenarioConfig{
		Name:      "ordered",
		Questions: []string{"total-cost"},
		Sweeps: []actuary.SweepConfig{{
			Name: "sw", Node: "5nm", Scheme: "MCM", D2DFraction: 0.10,
			Quantity: 1_000_000, AreasMM2: []float64{200, 400, 600}, Counts: []int{1, 2, 3},
		}},
	}
	// The resume field decides the stream spec: absent streams
	// unordered from 0, present streams ordered from next_index.
	for _, tc := range []struct {
		name   string
		resume *actuary.StreamResume
		want   actuary.StreamSpec
		err    bool
	}{
		{"no resume", nil, actuary.StreamSpec{}, false},
		{"resume 0", &actuary.StreamResume{NextIndex: 0}, actuary.StreamSpec{Ordered: true}, false},
		{"resume n", &actuary.StreamResume{NextIndex: 7}, actuary.StreamSpec{ResumeAt: 7, Ordered: true}, false},
		{"negative", &actuary.StreamResume{NextIndex: -2}, actuary.StreamSpec{}, true},
	} {
		c := cfg
		c.Resume = tc.resume
		src, spec, err := c.StreamSource()
		if tc.err {
			if err == nil || !strings.Contains(err.Error(), "negative index") {
				t.Errorf("%s: want a negative-index error, got %v", tc.name, err)
			}
			continue
		}
		if err != nil || src == nil || spec != tc.want {
			t.Errorf("%s: spec %+v (source %v, err %v), want %+v", tc.name, spec, src != nil, err, tc.want)
		}
	}
	// Fingerprint ignores delivery configuration.
	fpPlain, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Resume = &actuary.StreamResume{NextIndex: 4}
	fpResumed, err := resumed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpPlain != fpResumed {
		t.Error("the resume field must not change the scenario fingerprint")
	}
	// Version 0 (unset) and 2 declare the same schema, so they must
	// fingerprint identically — resuming a run after stamping the file
	// with an explicit version is not a new workload.
	stamped := cfg
	stamped.Version = 2
	if fpStamped, _ := stamped.Fingerprint(); fpStamped != fpPlain {
		t.Error("version 0 and version 2 encodings of one scenario fingerprint differently")
	}
	if fpOther, _ := (actuary.ScenarioConfig{Name: "other"}).Fingerprint(); fpOther == fpPlain {
		t.Error("different scenarios share a fingerprint")
	}
}

// TestReduceCheckpointedStopsAtInterruption pins the contract that a
// checkpoint never accounts interruption artifacts: gaps and canceled
// results end accounting, and the checkpoint stays resumable.
func TestReduceCheckpointedStopsAtInterruption(t *testing.T) {
	tc := actuary.TotalCost{}
	mk := func(i int) actuary.Result {
		return actuary.Result{Index: i, ID: fmt.Sprintf("r%d", i), Question: actuary.QuestionTotalCost, TotalCost: &tc}
	}
	// A gap: 0, 1, 3 — accounting must stop at 2.
	in := make(chan actuary.Result, 4)
	in <- mk(0)
	in <- mk(1)
	in <- mk(3)
	close(in)
	cp := actuary.NewStreamCheckpoint("f", 2)
	n, err := actuary.ReduceCheckpointed(in, cp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || cp.Next != 2 || cp.Stats.OK != 2 {
		t.Fatalf("gap handling: n=%d next=%d ok=%d, want 2/2/2", n, cp.Next, cp.Stats.OK)
	}
	// An ErrCanceled result is an interruption artifact, not a failure.
	in2 := make(chan actuary.Result, 2)
	in2 <- mk(0)
	in2 <- actuary.Result{Index: 1, Err: &actuary.Error{Code: actuary.ErrCanceled, Index: 1,
		Question: actuary.QuestionTotalCost, Err: context.Canceled}}
	close(in2)
	cp2 := actuary.NewStreamCheckpoint("f", 2)
	if _, err := actuary.ReduceCheckpointed(in2, cp2, 1, nil); err != nil {
		t.Fatal(err)
	}
	if cp2.Next != 1 || cp2.Stats.Failed != 0 {
		t.Fatalf("canceled result accounted: next=%d failed=%d, want 1/0", cp2.Next, cp2.Stats.Failed)
	}
	// A save error surfaces and stops the reduce.
	in3 := make(chan actuary.Result, 2)
	in3 <- mk(0)
	in3 <- mk(1)
	close(in3)
	boom := errors.New("out of inodes")
	if _, err := actuary.ReduceCheckpointed(in3, actuary.NewStreamCheckpoint("f", 1), 1,
		func(*actuary.StreamCheckpoint) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("save error: %v, want %v", err, boom)
	}
}

// TestCheckpointVersionMessage pins the shape of the version error so
// operators can tell a stale binary from a corrupt file.
func TestCheckpointVersionMessage(t *testing.T) {
	var cp actuary.SweepCheckpoint
	err := json.Unmarshal([]byte(`{"version":99,"fingerprint":"f","cursor":{"candidate":0,"stats":{}},"summary":{"count":0,"min":0,"max":0,"sum":0}}`), &cp)
	if err == nil || !strings.Contains(err.Error(), "version 99") || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version error %v should name both versions", err)
	}
}

// TestOrderedStreamBoundedUnderSkew pins the credit-window bound: a
// stream whose head request is far slower than the rest must not pull
// the whole source ahead while the head computes — dispatch stalls at
// the window, so reorder memory stays O(in-flight), not O(stream).
func TestOrderedStreamBoundedUnderSkew(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Request 0 is a multi-hundred-point sweep-best; hundreds of
	// microsecond-cheap requests follow. The source counts how far
	// generation ran ahead.
	var areas []float64
	for a := 100.0; a <= 800; a += 10 {
		areas = append(areas, a)
	}
	grid := testGrid(areas, []int{1, 2, 3, 4, 5, 6, 7, 8})
	slow := actuary.Request{ID: "slow", Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 1}
	sys := actuary.Monolithic("cheap", "5nm", 400, 1e6)
	const total = 300
	i := 0
	src := &countingSource{inner: sourceFuncT(func() (actuary.Request, bool) {
		if i >= total {
			return actuary.Request{}, false
		}
		i++
		if i == 1 {
			return slow, true
		}
		return actuary.Request{ID: fmt.Sprintf("cheap-%d", i), Question: actuary.QuestionRE, System: sys}, true
	})}
	ctx := context.Background()
	const inFlight = 4
	ch, err := s.Stream(ctx, src, actuary.StreamSpec{Ordered: true, InFlight: inFlight})
	if err != nil {
		t.Fatal(err)
	}
	// By the time the test reads result n, the pump may have pulled at
	// most n+1 (emitted and read) + the credit window (dispatched,
	// unemitted) + the ordered channel's own buffer and one in-flight
	// send (emitted, unread — their credits are back with the pump).
	// Anything beyond that means dispatch is not credit-limited.
	window := (inFlight + 2 /* workers */) + inFlight + 1
	n := 0
	for r := range ch {
		if r.Err != nil {
			t.Fatalf("result %q failed: %v", r.ID, r.Err)
		}
		if r.Index != n {
			t.Fatalf("emission %d carries index %d — ordered stream out of order", n, r.Index)
		}
		if ahead := src.pulled() - (n + 1); ahead > window+1 {
			t.Fatalf("generation ran %d ahead of emission %d; credit window is %d", ahead, n, window)
		}
		n++
	}
	if n != total {
		t.Fatalf("stream delivered %d of %d results", n, total)
	}
}

// sourceFuncT adapts a closure to a RequestSource for tests.
type sourceFuncT func() (actuary.Request, bool)

func (f sourceFuncT) Next() (actuary.Request, bool) { return f() }

// TestSweepCheckpointRejectsNegativeCounters: impossible counters in
// an otherwise well-formed checkpoint must fail resume, as the
// checkpoint contract promises.
func TestSweepCheckpointRejectsNegativeCounters(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grid := testGrid([]float64{400, 800}, []int{1, 2, 4})
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 2}
	fp, err := actuary.SweepFingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]*actuary.SweepCheckpoint{
		"negative infeasible": {Fingerprint: fp, Infeasible: -5},
		"negative candidate":  {Fingerprint: fp, FirstFailureCandidate: -1},
		"negative summary":    {Fingerprint: fp, Summary: actuary.SweepSummary{Count: -2}},
	} {
		if _, err := s.SweepBestCheckpointed(ctx, req, cp, 1, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
			t.Errorf("%s: %v, want ErrCheckpointMismatch", name, err)
		}
	}
}

// fleetStreamTestCheckpoint builds a structurally valid mid-run
// fleet stream checkpoint: three delivered results split 2/1 across
// two shard cursors.
func fleetStreamTestCheckpoint() *actuary.FleetStreamCheckpoint {
	merged := actuary.NewStreamCheckpoint("scenario-fp", 3)
	merged.Next = 3
	merged.Stats.OK = 2
	merged.Stats.Failed = 1
	return &actuary.FleetStreamCheckpoint{
		Merged: merged,
		Shards: 2,
		Cursors: []actuary.StreamCheckpoint{
			{Fingerprint: "shard-0-fp", Next: 2},
			{Fingerprint: "shard-1-fp", Next: 1},
		},
	}
}

func TestFleetStreamCheckpointWireRoundTrip(t *testing.T) {
	cp := fleetStreamTestCheckpoint()
	data := mustJSON(t, cp)
	var back actuary.FleetStreamCheckpoint
	if err := json.Unmarshal([]byte(data), &back); err != nil {
		t.Fatal(err)
	}
	if again := mustJSON(t, &back); again != data {
		t.Fatalf("round trip drifted:\n%s\n%s", data, again)
	}
	if back.Merged.Next != 3 || back.Shards != 2 || len(back.Cursors) != 2 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if back.Cursors[0].Fingerprint != "shard-0-fp" || back.Cursors[1].Next != 1 {
		t.Fatalf("round trip lost cursors: %+v", back.Cursors)
	}
}

func TestFleetStreamCheckpointWireRejects(t *testing.T) {
	good := mustJSON(t, fleetStreamTestCheckpoint())
	cases := map[string]string{
		"unknown version": strings.Replace(good, `"version":1`, `"version":99`, 1),
		"unknown field":   strings.Replace(good, `"shards":2`, `"shards":2,"bogus":true`, 1),
		"cursor sum mismatch": strings.Replace(good,
			`"next":1`, `"next":5`, 1),
		"missing merged": `{"version":1,"merged":null,"shards":1,"cursors":[{"fingerprint":"x","next":0}]}`,
	}
	for name, data := range cases {
		if data == good {
			t.Fatalf("%s: replacement did not apply", name)
		}
		var cp actuary.FleetStreamCheckpoint
		if err := json.Unmarshal([]byte(data), &cp); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if !strings.Contains(cases["unknown version"], `"version":99`) {
		t.Fatal("version replacement missed the outer envelope")
	}
	var cp actuary.FleetStreamCheckpoint
	err := json.Unmarshal([]byte(cases["unknown version"]), &cp)
	if err == nil || !strings.Contains(err.Error(), "fleet stream checkpoint version 99") {
		t.Fatalf("version error reads %v", err)
	}
}

func TestFleetStreamCheckpointValidate(t *testing.T) {
	if err := fleetStreamTestCheckpoint().Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	break_ := func(f func(*actuary.FleetStreamCheckpoint)) *actuary.FleetStreamCheckpoint {
		cp := fleetStreamTestCheckpoint()
		f(cp)
		return cp
	}
	bad := map[string]*actuary.FleetStreamCheckpoint{
		"nil merged":      break_(func(c *actuary.FleetStreamCheckpoint) { c.Merged = nil }),
		"zero shards":     break_(func(c *actuary.FleetStreamCheckpoint) { c.Shards = 0; c.Cursors = nil }),
		"cursor count":    break_(func(c *actuary.FleetStreamCheckpoint) { c.Cursors = c.Cursors[:1] }),
		"negative cursor": break_(func(c *actuary.FleetStreamCheckpoint) { c.Cursors[0].Next = -1 }),
		"negative merged": break_(func(c *actuary.FleetStreamCheckpoint) { c.Merged.Next = -1 }),
		"sum mismatch":    break_(func(c *actuary.FleetStreamCheckpoint) { c.Cursors[1].Next = 4 }),
	}
	for name, cp := range bad {
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFleetStreamCheckpointFileRoundTrip: a fleet stream checkpoint
// survives SaveCheckpointFile → LoadCheckpointFile unchanged, and a
// missing file reports os.ErrNotExist.
func TestFleetStreamCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	cp := fleetStreamTestCheckpoint()
	if err := actuary.SaveCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	back := new(actuary.FleetStreamCheckpoint)
	if err := actuary.LoadCheckpointFile(path, back); err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, back) != mustJSON(t, cp) {
		t.Fatal("file round trip drifted")
	}
	if err := actuary.LoadCheckpointFile(filepath.Join(dir, "absent.json"), new(actuary.FleetStreamCheckpoint)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

// checkpointForms maps each testdata/checkpoint fixture to a fresh
// value of the form it holds.
var checkpointForms = map[string]func() json.Unmarshaler{
	"sweep.json":        func() json.Unmarshaler { return new(actuary.SweepCheckpoint) },
	"search.json":       func() json.Unmarshaler { return new(actuary.SearchCheckpoint) },
	"stream.json":       func() json.Unmarshaler { return new(actuary.StreamCheckpoint) },
	"fleet-stream.json": func() json.Unmarshaler { return new(actuary.FleetStreamCheckpoint) },
	"coordinator.json":  func() json.Unmarshaler { return new(actuary.CoordinatorCheckpoint) },
}

// TestCheckpointFixturesReencode pins the v1 wire bytes of all five
// checkpoint forms: each fixture — a mid-run checkpoint written by
// SaveCheckpointFile from a real run — loads through LoadCheckpointFile
// and re-encodes to exactly the bytes on disk, and no fixture loads as
// any other form.
func TestCheckpointFixturesReencode(t *testing.T) {
	for name, form := range checkpointForms {
		path := filepath.Join("testdata", "checkpoint", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp := form()
		if err := actuary.LoadCheckpointFile(path, cp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := mustJSON(t, cp) + "\n"; again != string(data) {
			t.Errorf("%s: re-encoding drifted from the fixture:\n got %s\nwant %s", name, again, data)
		}
		for other, otherForm := range checkpointForms {
			if other != name {
				if err := actuary.LoadCheckpointFile(path, otherForm()); err == nil {
					t.Errorf("%s loaded as the %s form", name, other)
				}
			}
		}
	}
}
