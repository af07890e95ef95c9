package actuary_test

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chipletactuary"
)

// collectLean drains one stream of the given grid built on a LEAN
// generator — the run-batched dispatch path when slabSize > 1 and the
// question is total-cost. filters are installed on the generator;
// ordered selects delivery mode.
func collectLean(t *testing.T, s *actuary.Session, grid actuary.SweepGrid, lean bool,
	shard, shards, resumeAt, slabSize int, ordered bool, filters ...actuary.SweepFilter) []actuary.Result {
	t.Helper()
	gen := grid.Points(filters...)
	if lean {
		gen.Lean()
	}
	if shards > 1 {
		gen.Shard(shard, shards)
	}
	src, err := actuary.SweepSource(gen, actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	spec := actuary.StreamSpec{Ordered: ordered, ResumeAt: resumeAt, SlabSize: slabSize}
	ch, err := s.Stream(context.Background(), src, spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []actuary.Result
	for r := range ch {
		out = append(out, r)
	}
	if !ordered {
		sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	}
	return out
}

// TestRunBatchedMatchesPointPath is the end-to-end bit-identity
// property for run dispatch: across randomized grids, shard counts,
// resume cuts and slab sizes, a lean generator streamed through the
// run-batched path must deliver reflect.DeepEqual results — indexes,
// IDs, cost bits, error structure — to the materialized point path.
func TestRunBatchedMatchesPointPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newTestSession(t, actuary.WithWorkers(2))
	for trial := 0; trial < 3; trial++ {
		lo := 100 + float64(rng.Intn(200))
		n := 15 + rng.Intn(20)
		areas := make([]float64, n)
		for i := range areas {
			areas[i] = lo + 12.5*float64(i)
		}
		counts := []int{1, 2, 3, 4, 5, 6, 7, 8}[:2+rng.Intn(7)]
		grid := testGrid(areas, counts)
		for _, shards := range []int{1, 3} {
			for shard := 0; shard < shards; shard++ {
				resumeAt := rng.Intn(5)
				want := collectLean(t, s, grid, false, shard, shards, resumeAt, 1, true)
				if len(want) == 0 {
					t.Fatalf("trial %d shard %d/%d: point path empty", trial, shard, shards)
				}
				for _, slab := range []int{0, 5} { // default and a deliberately odd size
					got := collectLean(t, s, grid, true, shard, shards, resumeAt, slab, true)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d shard %d/%d resume %d slab %d: run-batched results diverge from point path (%d vs %d results)",
							trial, shard, shards, resumeAt, slab, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestRunBatchedUnorderedMatches covers the unordered delivery mode
// (the bench harness configuration): same result set, completion order
// aside.
func TestRunBatchedUnorderedMatches(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(4))
	grid := testGrid(mustAreaRange(t, 100, 600, 25), []int{1, 2, 3, 4, 5})
	want := collectLean(t, s, grid, false, 0, 1, 0, 1, false)
	got := collectLean(t, s, grid, true, 0, 1, 0, 0, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unordered run-batched results diverge (%d vs %d results)", len(got), len(want))
	}
}

// TestRunBatchedWithFilters installs the built-in pruning filters —
// which read only scalar point fields and so are lean-compatible — and
// demands identical surviving streams.
func TestRunBatchedWithFilters(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 200, 1600, 100), []int{1, 2, 3, 4})
	filters := []actuary.SweepFilter{actuary.SweepReticleFit(), actuary.SweepInterposerFit(s.Packaging())}
	want := collectLean(t, s, grid, false, 0, 1, 0, 1, true, filters...)
	got := collectLean(t, s, grid, true, 0, 1, 0, 0, true, filters...)
	if len(want) == 0 {
		t.Fatal("filtered point path empty")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered run-batched results diverge (%d vs %d results)", len(got), len(want))
	}
}

// TestRunBatchedErrorParity sweeps a grid whose node does not exist,
// so every point fails: the run-batched fallback must reproduce the
// point path's structured errors exactly, DeepEqual included.
func TestRunBatchedErrorParity(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := actuary.SweepGrid{
		Name:       "badnode",
		Nodes:      []string{"not-a-node"},
		Schemes:    []actuary.Scheme{actuary.MCM},
		AreasMM2:   []float64{100, 200, 300},
		Counts:     []int{1, 2, 3},
		Quantities: []float64{1000},
		D2D:        actuary.D2DFraction(0.10),
	}
	want := collectLean(t, s, grid, false, 0, 1, 0, 1, true)
	got := collectLean(t, s, grid, true, 0, 1, 0, 0, true)
	if len(want) == 0 {
		t.Fatal("point path empty")
	}
	for _, r := range want {
		if r.Err == nil {
			t.Fatalf("expected every point to fail, %q succeeded", r.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("error results diverge (%d vs %d results)", len(got), len(want))
	}
}

// TestRunBatchedAggregators reduces both paths through the session
// aggregators — what the bench harness and sweep-best consumers do —
// and compares retained state.
func TestRunBatchedAggregators(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(4))
	grid := testGrid(mustAreaRange(t, 100, 800, 10), []int{1, 2, 3, 4, 5, 6, 7, 8})
	reduce := func(lean bool) ([]actuary.Result, actuary.StreamStats) {
		gen := grid.Points()
		if lean {
			gen.Lean()
		}
		src, err := actuary.SweepSource(gen, actuary.QuestionTotalCost, actuary.PerSystemUnit)
		if err != nil {
			t.Fatal(err)
		}
		// Ordered delivery pins the summation order: StreamStats.Cost.Sum
		// is order-sensitive in the last ulp, and unordered completion
		// order is nondeterministic on both paths.
		ch, err := s.Stream(context.Background(), src, actuary.StreamSpec{Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		top := actuary.NewCostTopK(5)
		var stats actuary.StreamStats
		actuary.Reduce(ch, top, &stats)
		return top.Results(), stats
	}
	wantTop, wantStats := reduce(false)
	gotTop, gotStats := reduce(true)
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatalf("top-K diverges:\n got %+v\nwant %+v", gotTop, wantTop)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stream stats diverge: %+v vs %+v", gotStats, wantStats)
	}
}
