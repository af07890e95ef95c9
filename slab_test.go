package actuary_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"chipletactuary"
)

// plainSource hides the concrete type of the source it wraps, as a
// caller's own RequestSource would.
type plainSource struct{ inner actuary.RequestSource }

func (p plainSource) Next() (actuary.Request, bool) { return p.inner.Next() }

// collectOrdered drains one ordered stream of the given grid shard
// into a slice. slabSize 0 means the default slab size; 1 forces
// one-request slabs. plain wraps the sweep source in plainSource.
func collectOrdered(t *testing.T, s *actuary.Session, grid actuary.SweepGrid, shard, shards, resumeAt, slabSize int, plain bool) []actuary.Result {
	t.Helper()
	gen := grid.Points()
	if shards > 1 {
		gen.Shard(shard, shards)
	}
	src, err := actuary.SweepSource(gen, actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	if plain {
		src = plainSource{src}
	}
	spec := actuary.StreamSpec{Ordered: true, ResumeAt: resumeAt, SlabSize: slabSize}
	ch, err := s.Stream(context.Background(), src, spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []actuary.Result
	for r := range ch {
		out = append(out, r)
	}
	return out
}

// TestSlabPathMatchesPointPath is the dispatch-equivalence property
// test: across randomized grids, shard counts, resume points, slab
// sizes and source types, every slab size must deliver exactly the
// results one-request slabs deliver — same indexes, same IDs, same
// bits, same errors.
func TestSlabPathMatchesPointPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newTestSession(t, actuary.WithWorkers(2))
	for trial := 0; trial < 3; trial++ {
		lo := 100 + float64(rng.Intn(200))
		n := 20 + rng.Intn(30)
		areas := make([]float64, n)
		for i := range areas {
			areas[i] = lo + 12.5*float64(i)
		}
		counts := []int{1, 2, 3, 4, 5, 6, 7, 8}[:2+rng.Intn(7)]
		grid := testGrid(areas, counts)
		for _, shards := range []int{1, 3} {
			for shard := 0; shard < shards; shard++ {
				resumeAt := rng.Intn(5)
				point := collectOrdered(t, s, grid, shard, shards, resumeAt, 1, false)
				if len(point) == 0 {
					t.Fatalf("trial %d shard %d/%d: one-request slabs empty", trial, shard, shards)
				}
				for _, slab := range []int{0, 5} { // default and a deliberately odd size
					for _, plain := range []bool{false, true} {
						got := collectOrdered(t, s, grid, shard, shards, resumeAt, slab, plain)
						if !reflect.DeepEqual(got, point) {
							t.Fatalf("trial %d shard %d/%d resume %d slab %d plain %v: %d results diverge from one-request slabs (%d results)",
								trial, shard, shards, resumeAt, slab, plain, len(got), len(point))
						}
					}
				}
			}
		}
	}
}

// TestSlabSweepBestMatchesPointPath runs sharded sweep-best requests
// through default and one-request slabs on the same session and
// demands byte-identical answers, shard by shard.
func TestSlabSweepBestMatchesPointPath(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 200, 800, 50), []int{1, 2, 3, 4})
	const shards = 4
	reqs := make([]actuary.Request, shards)
	for i := range reqs {
		reqs[i] = actuary.Request{
			Question:   actuary.QuestionSweepBest,
			Grid:       &grid,
			TopK:       5,
			ShardIndex: i,
			ShardCount: shards,
		}
	}
	run := func(slabSize int) []actuary.Result {
		spec := actuary.StreamSpec{Ordered: true, SlabSize: slabSize}
		ch, err := s.Stream(context.Background(), actuary.SliceSource(reqs), spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []actuary.Result
		for r := range ch {
			if r.Err != nil {
				t.Fatalf("shard %d failed: %v", r.Index, r.Err)
			}
			out = append(out, r)
		}
		return out
	}
	point := run(1)
	slab := run(0)
	if !reflect.DeepEqual(slab, point) {
		t.Fatalf("sweep-best answers diverge between default and one-request slabs:\nslab:  %+v\npoint: %+v", slab, point)
	}
}

// TestSlabResumeContinuation checks that a checkpoint cut anywhere in
// a slab-dispatched stream resumes into exactly the remaining suffix,
// whatever slab size the resumed stream uses — cursors are candidate-
// granular, never slab-granular.
func TestSlabResumeContinuation(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 100, 400, 20), []int{1, 2, 3})
	full := collectOrdered(t, s, grid, 0, 1, 0, 0, false)
	for _, cut := range []int{1, 7, len(full) - 2} {
		for _, slab := range []int{0, 1, 3} {
			for _, plain := range []bool{false, true} {
				rest := collectOrdered(t, s, grid, 0, 1, cut, slab, plain)
				if !reflect.DeepEqual(rest, full[cut:]) {
					t.Fatalf("resume at %d with slab %d plain %v: suffix diverges (%d results, want %d)",
						cut, slab, plain, len(rest), len(full)-cut)
				}
			}
		}
	}
}
