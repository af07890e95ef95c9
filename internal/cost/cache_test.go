package cost

import (
	"math"
	"sync"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

func cachedEngine(t *testing.T, size int) *Engine {
	t.Helper()
	e, err := NewEngineWithCache(tech.Default(), packaging.DefaultParams(), size)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mcm2(t *testing.T, name string, area float64) system.System {
	t.Helper()
	s, err := system.PartitionEqual(name, "7nm", area, 2, packaging.MCM,
		dtod.Fraction{F: 0.10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheMatchesUncached verifies memoized evaluations are
// bit-identical to the direct computation.
func TestCacheMatchesUncached(t *testing.T) {
	plain, err := NewEngine(tech.Default(), packaging.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cached := cachedEngine(t, 64)
	s := mcm2(t, "x", 600)
	want, err := plain.RE(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated runs exercise both miss and hit paths
		got, err := cached.RE(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total() != want.Total() || got.RawChips != want.RawChips {
			t.Fatalf("run %d: cached RE %v != uncached %v", i, got.Total(), want.Total())
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Errorf("expected cache hits, got %+v", st)
	}
	// Both chiplets of the equal partition share one die shape.
	if st.Entries != 1 {
		t.Errorf("expected 1 cached die shape, got %+v", st)
	}
}

// TestCacheSalvageKeying verifies salvage-enabled dies do not collide
// with their full-good twins.
func TestCacheSalvageKeying(t *testing.T) {
	e := cachedEngine(t, 64)
	s := mcm2(t, "x", 600)
	plainRE, err := e.RE(s)
	if err != nil {
		t.Fatal(err)
	}
	salv := s
	salv.Placements = make([]system.Placement, len(s.Placements))
	copy(salv.Placements, s.Placements)
	salv.Placements[0].Chiplet.Salvage = &system.SalvageSpec{Fraction: 0.5, Value: 0.7}
	salvRE, err := e.RE(salv)
	if err != nil {
		t.Fatal(err)
	}
	if salvRE.Total() >= plainRE.Total() {
		t.Errorf("salvage should reduce effective cost: %v vs %v", salvRE.Total(), plainRE.Total())
	}
}

// TestCacheEviction verifies the FIFO bound holds and evicted keys
// are recomputed correctly. The bound is enforced per shard, so a
// size-n cache holds at most n entries once every shard has filled
// (and never more than n rounded up to the shard count).
func TestCacheEviction(t *testing.T) {
	e := cachedEngine(t, 32)
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			area := 200 + float64(i)*5
			if _, err := e.RE(mcm2(t, "x", area)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := e.CacheStats(); st.Entries > 32 {
		t.Errorf("cache exceeded its bound: %+v", st)
	}
}

// TestCacheConcurrent hammers one shared engine from many goroutines;
// run with -race to check the synchronization.
func TestCacheConcurrent(t *testing.T) {
	e := cachedEngine(t, 8)
	areas := []float64{300, 400, 500, 600, 700, 800}
	want := make([]float64, len(areas))
	for i, a := range areas {
		b, err := e.RE(mcm2(t, "w", a))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b.Total()
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, a := range areas {
					s, err := system.PartitionEqual("w", "7nm", a, 2, packaging.MCM,
						dtod.Fraction{F: 0.10}, 1)
					if err != nil {
						errc <- err
						return
					}
					b, err := e.RE(s)
					if err != nil {
						errc <- err
						return
					}
					if math.Abs(b.Total()-want[i]) > 1e-12 {
						t.Errorf("area %v: concurrent RE %v != %v", a, b.Total(), want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCacheRetainsRoundAreaGrid feeds a default-size KGD cache every
// distinct die shape of a 1 mm²-step 5nm grid (areas 100–800, k=1–4,
// D2D 10%, k=1 monolithic as the sweep builds it): 2,201 keys, a bit
// over half the table. Round areas leave the low bits of dieKeyHash
// structured; a table that picked shards or sets from those raw bits
// crowded a few shards and kept only 1,659 of them (75%). The
// finalized hash spreads them over every set, so only the handful of
// sets that draw more than eight shapes evict.
func TestCacheRetainsRoundAreaGrid(t *testing.T) {
	seen := make(map[DieKey]bool)
	for a := 100; a <= 800; a++ {
		for k := 1; k <= 4; k++ {
			scheme := packaging.MCM
			if k == 1 {
				scheme = packaging.SoC
			}
			s, err := system.PartitionEqual("g", "5nm", float64(a), k, scheme, dtod.Fraction{F: 0.10}, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := s.Placements[0].Chiplet
			seen[DieKey{Node: c.Node, AreaMM2: c.DieArea()}] = true
		}
	}
	if len(seen) != 2201 {
		t.Fatalf("grid has %d distinct die shapes, want 2201", len(seen))
	}
	c := newKGDCache(4096)
	for k := range seen {
		c.Put(k, dieValue{})
	}
	resident := 0
	for k := range seen {
		if _, ok := c.Peek(k); ok {
			resident++
		}
	}
	st := c.Stats()
	if resident != st.Entries || int64(st.Entries)+st.Evictions != int64(len(seen)) {
		t.Fatalf("%d resident keys, stats %+v", resident, st)
	}
	if min := len(seen) * 98 / 100; resident < min {
		t.Errorf("retained %d of %d die shapes, want ≥ %d", resident, len(seen), min)
	}
}
