package actuary_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"chipletactuary"
)

func mergeTestGrid() *actuary.SweepGrid {
	return &actuary.SweepGrid{
		Name:       "mg",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   []float64{200, 500, 860}, // 860: over-reticle monoliths prune
		Counts:     []int{1, 2, 3, 4},
		Quantities: []float64{1e6},
		D2D:        actuary.D2DFraction(0.10),
	}
}

// TestShardedSweepBestMergesExactly is the in-process acceptance test
// of the sharding refactor: QuestionSweepBest answered shard by shard
// and merged reproduces the unsharded answer — top-K and Pareto
// byte-identical, summary exact except Sum's reassociation error,
// pruning statistics exact.
func TestShardedSweepBestMergesExactly(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	grid := mergeTestGrid()
	base := actuary.Request{Question: actuary.QuestionSweepBest, Grid: grid, TopK: 4}
	whole := s.Evaluate(context.Background(), []actuary.Request{base})[0]
	if whole.Err != nil {
		t.Fatal(whole.Err)
	}
	want := whole.SweepBest

	for n := 1; n <= 5; n++ {
		reqs := make([]actuary.Request, n)
		for i := range reqs {
			reqs[i] = base
			reqs[i].ShardIndex, reqs[i].ShardCount = i, n
		}
		results := s.Evaluate(context.Background(), reqs)
		merger := actuary.NewSweepBestMerger(base.TopK)
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("n=%d: shard %d failed: %v", n, r.Index, r.Err)
			}
			merger.Add(r.SweepBest)
		}
		got, err := merger.Result(grid.Name)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got.Top, want.Top) {
			t.Errorf("n=%d: merged Top diverged from the unsharded answer", n)
		}
		if !reflect.DeepEqual(got.Pareto, want.Pareto) {
			t.Errorf("n=%d: merged Pareto diverged from the unsharded answer", n)
		}
		if got.Summary.Count != want.Summary.Count ||
			got.Summary.Min != want.Summary.Min || got.Summary.MinID != want.Summary.MinID ||
			got.Summary.Max != want.Summary.Max || got.Summary.MaxID != want.Summary.MaxID {
			t.Errorf("n=%d: merged summary %+v, want %+v", n, got.Summary, want.Summary)
		}
		if math.Abs(got.Summary.Sum-want.Summary.Sum) > 1e-9*want.Summary.Sum {
			t.Errorf("n=%d: merged Sum %v beyond reassociation tolerance of %v", n, got.Summary.Sum, want.Summary.Sum)
		}
		if got.Pruned != want.Pruned || got.Deduped != want.Deduped || got.Infeasible != want.Infeasible {
			t.Errorf("n=%d: merged stats %d/%d/%d, want %d/%d/%d", n,
				got.Pruned, got.Deduped, got.Infeasible, want.Pruned, want.Deduped, want.Infeasible)
		}
	}
}

// TestShardedSweepBestEmptyShard: a shard owning no feasible candidate
// answers an empty SweepBest (its statistics intact) instead of an
// error — only the merged whole decides infeasibility.
func TestShardedSweepBestEmptyShard(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	grid := &actuary.SweepGrid{Name: "tiny", Nodes: []string{"7nm"},
		Schemes: []actuary.Scheme{actuary.MCM}, AreasMM2: []float64{400},
		Counts: []int{1, 2}, Quantities: []float64{1e6}}
	// Shard 7 of 8 of a 2-candidate grid owns nothing.
	res := s.Evaluate(context.Background(), []actuary.Request{{
		Question: actuary.QuestionSweepBest, Grid: grid, ShardIndex: 7, ShardCount: 8,
	}})[0]
	if res.Err != nil {
		t.Fatalf("empty shard errored: %v", res.Err)
	}
	if res.SweepBest.Summary.Count != 0 || len(res.SweepBest.Top) != 0 {
		t.Errorf("empty shard answered %+v", res.SweepBest)
	}

	// An all-infeasible grid still errors when merged — with the same
	// classification the unsharded question produces.
	merger := actuary.NewSweepBestMerger(1)
	merger.Add(res.SweepBest)
	if _, err := merger.Result(grid.Name); err == nil {
		t.Fatal("all-empty merge produced an answer")
	} else if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrInfeasible {
		t.Errorf("all-empty merge error %v, want classified infeasible", err)
	}
}

// TestStreamAggregatorMerge: the root-level online aggregators merge
// across split streams into exactly the single-stream reduction.
func TestStreamAggregatorMerge(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cfg := actuary.ScenarioConfig{
		Name: "agg", Questions: []string{"total-cost"},
		Sweeps: []actuary.SweepConfig{{
			Name: "g", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM"},
			Quantity: 1e6, AreasMM2: []float64{200, 400, 600}, Counts: []int{1, 2, 3},
			D2DFraction: 0.10,
		}},
	}
	reduce := func(c actuary.ScenarioConfig) (*actuary.CostTopK, *actuary.CostPareto, actuary.StreamStats) {
		src, err := c.Source()
		if err != nil {
			t.Fatal(err)
		}
		ch, err := s.Stream(context.Background(), src, actuary.StreamSpec{})
		if err != nil {
			t.Fatal(err)
		}
		top := actuary.NewCostTopK(3)
		front := actuary.NewCostPareto()
		var stats actuary.StreamStats
		actuary.Reduce(ch, top, front, &stats)
		return top, front, stats
	}
	wantTop, wantFront, wantStats := reduce(cfg)

	const n = 3
	top := actuary.NewCostTopK(3)
	front := actuary.NewCostPareto()
	var stats actuary.StreamStats
	for i := 0; i < n; i++ {
		shard := cfg
		shard.ShardIndex, shard.ShardCount = i, n
		st, sf, ss := reduce(shard)
		top.Merge(st)
		front.Merge(sf)
		stats.Merge(ss)
	}
	sameResults := func(a, b []actuary.Result) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].TotalCost.Total() != b[i].TotalCost.Total() {
				return false
			}
		}
		return true
	}
	if !sameResults(top.Results(), wantTop.Results()) {
		t.Errorf("merged CostTopK = %v, want %v", resultIDs(top.Results()), resultIDs(wantTop.Results()))
	}
	if top.Seen() != wantTop.Seen() {
		t.Errorf("merged CostTopK saw %d, want %d", top.Seen(), wantTop.Seen())
	}
	if !sameResults(front.Front(), wantFront.Front()) {
		t.Errorf("merged CostPareto = %v, want %v", resultIDs(front.Front()), resultIDs(wantFront.Front()))
	}
	if stats.OK != wantStats.OK || stats.Failed != wantStats.Failed ||
		stats.Skipped != wantStats.Skipped || stats.Cost.Count != wantStats.Cost.Count ||
		stats.Cost.Min != wantStats.Cost.Min || stats.Cost.MinID != wantStats.Cost.MinID {
		t.Errorf("merged StreamStats %+v, want %+v", stats, wantStats)
	}
}

func resultIDs(rs []actuary.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// TestShardedSweepBestFirstFailureInvariant: with a partially failing
// axis, the merged FirstFailure must be the globally first failing
// candidate — the same error, at the same grid position, as the
// unsharded walk, whatever the shard count.
func TestShardedSweepBestFirstFailureInvariant(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	grid := mergeTestGrid()
	grid.Nodes = []string{"5nm", "not-a-node"}
	base := actuary.Request{Question: actuary.QuestionSweepBest, Grid: grid, TopK: 3}
	whole := s.Evaluate(context.Background(), []actuary.Request{base})[0]
	if whole.Err != nil {
		t.Fatal(whole.Err)
	}
	want := whole.SweepBest
	if want.FirstFailure == nil {
		t.Fatal("partial-failure grid kept no first failure")
	}
	for n := 2; n <= 5; n++ {
		reqs := make([]actuary.Request, n)
		for i := range reqs {
			reqs[i] = base
			reqs[i].ShardIndex, reqs[i].ShardCount = i, n
		}
		merger := actuary.NewSweepBestMerger(base.TopK)
		// Add in reverse order to prove order-independence.
		results := s.Evaluate(context.Background(), reqs)
		for i := len(results) - 1; i >= 0; i-- {
			if results[i].Err != nil {
				t.Fatal(results[i].Err)
			}
			merger.Add(results[i].SweepBest)
		}
		got, err := merger.Result(grid.Name)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.FirstFailure.Error() != want.FirstFailure.Error() {
			t.Errorf("n=%d: FirstFailure = %q, want %q", n, got.FirstFailure, want.FirstFailure)
		}
		if got.FirstFailureCandidate != want.FirstFailureCandidate {
			t.Errorf("n=%d: FirstFailureCandidate = %d, want %d",
				n, got.FirstFailureCandidate, want.FirstFailureCandidate)
		}
		if got.Infeasible != want.Infeasible {
			t.Errorf("n=%d: Infeasible = %d, want %d", n, got.Infeasible, want.Infeasible)
		}
	}
}
