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

func sharedEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(tech.Default(), packaging.DefaultParams())
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

// TestCacheSalvageKeying verifies a salvage-enabled die is not priced
// as its full-good twin of the same node and area when both are
// evaluated on one engine.
func TestCacheSalvageKeying(t *testing.T) {
	e := sharedEngine(t)
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
	again, err := e.RE(s)
	if err != nil {
		t.Fatal(err)
	}
	if again.Total() != plainRE.Total() {
		t.Errorf("full-good RE changed after a salvage evaluation: %v vs %v", again.Total(), plainRE.Total())
	}
}

// TestCacheConcurrent hammers one shared engine from many goroutines
// and checks every answer against a sequential one; run with -race to
// check the engine holds no unsynchronized state.
func TestCacheConcurrent(t *testing.T) {
	e := sharedEngine(t)
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
