package sweep

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// TestLeanWalkEquivalence drives the lean generator beside the full
// one across sharded, filtered and multi-axis grids: same survivors in
// the same order, same Stats, and a DieAreaMM2 stamp that is bitwise
// equal to the die area of the system the full walk built.
func TestLeanWalkEquivalence(t *testing.T) {
	grids := []Grid{
		testGrid(),
		{
			Name:       "multi",
			Nodes:      []string{"5nm", "7nm"},
			Schemes:    []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO},
			AreasMM2:   []float64{0.5, 100, 400, 858, 1500},
			Counts:     []int{1, 2, 3, 8},
			Quantities: []float64{1000, 1_000_000},
			D2D:        dtod.Fraction{F: 0.25},
		},
		{
			Name:       "nod2d",
			Nodes:      []string{"7nm"},
			Schemes:    []packaging.Scheme{packaging.MCM},
			AreasMM2:   []float64{200, 600},
			Counts:     []int{1, 2, 5},
			Quantities: []float64{500},
		},
	}
	params := packaging.DefaultParams()
	filterSets := [][]Filter{nil, {ReticleFit()}, {ReticleFit(), InterposerFit(params)}}
	for gi, g := range grids {
		for fi, filters := range filterSets {
			for _, shards := range []int{1, 3} {
				for shard := 0; shard < shards; shard++ {
					full := g.Points(filters...).Shard(shard, shards)
					lean := g.Points(filters...).Lean().Shard(shard, shards)
					fullPts := drainPoints(full)
					leanPts := drainPoints(lean)
					if len(fullPts) != len(leanPts) {
						t.Fatalf("grid %d filters %d shard %d/%d: %d full vs %d lean points",
							gi, fi, shard, shards, len(fullPts), len(leanPts))
					}
					for i := range fullPts {
						f, l := fullPts[i], leanPts[i]
						if l.System.Name != "" {
							t.Fatalf("lean point %q carries a materialized system", l.ID)
						}
						l.System = f.System // equalize the one intended difference
						if !reflect.DeepEqual(f, l) {
							t.Fatalf("grid %d filters %d shard %d/%d point %d: full %+v vs lean %+v",
								gi, fi, shard, shards, i, f, l)
						}
						if len(f.System.Placements) > 0 {
							if die := f.System.Placements[0].Chiplet.DieArea(); die != f.DieAreaMM2 {
								t.Fatalf("point %q: stamped DieAreaMM2 %v != system die area %v",
									f.ID, f.DieAreaMM2, die)
							}
						}
					}
					if fs, ls := full.Stats(), lean.Stats(); fs != ls {
						t.Fatalf("grid %d filters %d shard %d/%d: stats %+v vs %+v",
							gi, fi, shard, shards, fs, ls)
					}
				}
			}
		}
	}
}

func drainPoints(it *Generator) []Point {
	var out []Point
	buf := make([]Point, 7) // odd slab size to exercise partial fills
	for {
		n := it.NextSlab(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestPointIDsMatchGridPointID checks the generator's cached-prefix
// IDs against the reference spelling Grid.PointID on every walk shape
// that moves the cache: multi-valued node, scheme and quantity axes
// (each one adds an ID segment), k = 1 SoC dedup (the effective scheme
// differs from the grid's), shards, lean walks, and walks restored
// from a cursor taken mid-walk.
func TestPointIDsMatchGridPointID(t *testing.T) {
	grids := []Grid{
		testGrid(),
		{
			Name:       "multi",
			Nodes:      []string{"5nm", "7nm", "12nm"},
			Schemes:    []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD},
			AreasMM2:   []float64{0.5, 100, 123.25, 800},
			Counts:     []int{1, 2, 3, 10, 12},
			Quantities: []float64{1000, 2.5e5, 1_000_000},
			D2D:        dtod.Fraction{F: 0.1},
		},
		{
			Name:       "q",
			Nodes:      []string{"7nm"},
			Schemes:    []packaging.Scheme{packaging.MCM},
			AreasMM2:   []float64{300},
			Counts:     []int{1, 4},
			Quantities: []float64{1e4, 1e7},
		},
	}
	check := func(t *testing.T, it *Generator, what string) int {
		t.Helper()
		g := it.Grid()
		n := 0
		for {
			p, ok := it.Next()
			if !ok {
				return n
			}
			want := g.PointID(p.Node, p.Scheme, p.AreaMM2, p.K, p.Quantity)
			if p.ID != want {
				t.Fatalf("%s: point %d ID %q, want %q", what, n, p.ID, want)
			}
			if p.System.Name != "" && p.System.Name != want {
				t.Fatalf("%s: point %d system name %q, want %q", what, n, p.System.Name, want)
			}
			n++
		}
	}
	rng := rand.New(rand.NewSource(7))
	for gi, g := range grids {
		for _, lean := range []bool{false, true} {
			for _, shards := range []int{1, 2, 5} {
				for shard := 0; shard < shards; shard++ {
					mk := func() *Generator {
						it := g.Points(ReticleFit()).Shard(shard, shards)
						if lean {
							it.Lean()
						}
						return it
					}
					what := fmt.Sprintf("grid %d lean=%v shard %d/%d", gi, lean, shard, shards)
					total := check(t, mk(), what)
					if total == 0 {
						continue
					}
					// Restore mid-walk: the cache starts cold at an
					// arbitrary combination, not at the first.
					head := mk()
					for i := rng.Intn(total); i > 0; i-- {
						head.Next()
					}
					resumed, err := mk().Restore(head.Cursor())
					if err != nil {
						t.Fatal(err)
					}
					check(t, resumed, what+" restored")
				}
			}
		}
	}
}

// TestGeneratorNextAllocs pins the per-point allocation ceilings of
// the generator on a fixed grid: a materialized point costs its ID
// string plus PartitionEqual's placements, modules and name string;
// a lean point costs only its ID.
func TestGeneratorNextAllocs(t *testing.T) {
	g := Grid{
		Name:       "alloc",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []packaging.Scheme{packaging.MCM, packaging.InFO},
		AreasMM2:   []float64{100, 200, 400, 800},
		Counts:     []int{1, 2, 3, 4, 6, 8},
		Quantities: []float64{1e5, 1e6},
		D2D:        dtod.Fraction{F: 0.1},
	}
	for _, c := range []struct {
		lean bool
		max  float64
	}{{false, 5}, {true, 1}} {
		var it *Generator
		fresh := func() {
			it = g.Points(ReticleFit(), InterposerFit(packaging.DefaultParams()))
			if c.lean {
				it.Lean()
			}
			it.Next() // warm the ID buffer
		}
		fresh()
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := it.Next(); !ok {
				fresh()
			}
		})
		t.Logf("lean=%v: %.2f allocs per Next", c.lean, allocs)
		if allocs > c.max {
			t.Errorf("lean=%v: %.2f allocs per Next, want ≤ %v", c.lean, allocs, c.max)
		}
	}
}
