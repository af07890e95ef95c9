package nre

import (
	"fmt"
	"math"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
)

// TestPortfolioAmortizationDeterministic checks a design shared by
// many systems with non-integer volumes is amortized over the volumes
// summed left to right in portfolio order, with the same bits on every
// call.
func TestPortfolioAmortizationDeterministic(t *testing.T) {
	e := engine(t)
	quantities := []float64{1e5 + 0.1, 3e5 + 0.7, 7e6 + 0.3, 2.5e5 + 0.9, 1.3e6 + 0.01, 9e4 + 0.37}
	var systems []system.System
	for i, q := range quantities {
		systems = append(systems, system.System{
			Name: fmt.Sprintf("soc-%d", i), Scheme: packaging.SoC, Quantity: q,
			Placements: []system.Placement{{Count: 1, Chiplet: system.Chiplet{
				Name: fmt.Sprintf("soc-%d-die", i), Node: "7nm",
				Modules: []system.Module{{Name: "shared", AreaMM2: 200}},
			}}},
		})
	}
	for _, policy := range []Policy{PerSystemUnit, PerInstance} {
		var sum float64
		for _, q := range quantities {
			sum += q // one instance per system under either policy
		}
		first, err := e.Portfolio(systems, policy)
		if err != nil {
			t.Fatal(err)
		}
		var cost float64
		for _, d := range first.Designs {
			if d.Key == "module/7nm/shared" {
				cost = d.Cost
			}
		}
		want := math.Float64bits(cost / sum)
		for call := 0; call < 200; call++ {
			res, err := e.Portfolio(systems, policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range systems {
				if got := math.Float64bits(res.PerUnit[s.Name].Modules); got != want {
					t.Fatalf("%v call %d: %s module share bits %#x, want %#x (cost / portfolio-order volume sum)",
						policy, call, s.Name, got, want)
				}
			}
		}
	}
}

// diesGeometry is the package geometry transcribed die by die: expand
// every placement, take each die's area, and package zero-cost dies.
func diesGeometry(e *Engine, s system.System) (float64, error) {
	dies := s.Dies()
	areas := make([]float64, len(dies))
	zeros := make([]float64, len(dies))
	for i, c := range dies {
		areas[i] = c.DieArea()
	}
	asm := packaging.Assembly{DieAreasMM2: areas, KGDCosts: zeros}
	if s.Envelope != nil {
		asm.FootprintOverrideMM2 = s.Envelope.FootprintMM2
		asm.InterposerOverrideMM2 = s.Envelope.InterposerAreaMM2
	}
	pkg, err := packaging.Package(e.params, e.db, s.Scheme, s.Flow, asm)
	if err != nil {
		return 0, err
	}
	return pkg.SubstrateAreaMM2 + pkg.InterposerAreaMM2, nil
}

// TestPackageGeometryMatchesPerDie diffs the placement-wise package
// geometry against the die-by-die one, reusing one scratch buffer
// across systems of different sizes as Portfolio does.
func TestPackageGeometryMatchesPerDie(t *testing.T) {
	e := engine(t)
	var systems []system.System
	for _, scheme := range []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD} {
		family, err := reuse.FSMC(reuse.FSMCConfig{
			Node: "7nm", ModuleAreaMM2: 150, Types: 4, Sockets: 3,
			Scheme: scheme, QuantityPerSystem: 5e5, Params: e.params,
		})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, family...)
	}
	d2d := dtod.Fraction{F: 0.1}
	ccd := system.Chiplet{Name: "ccd", Node: "7nm", D2D: d2d, Modules: []system.Module{{Name: "cores", AreaMM2: 66.6}}}
	iod := system.Chiplet{Name: "iod", Node: "12nm", D2D: d2d, Modules: []system.Module{{Name: "io", AreaMM2: 374.4}}}
	huge := system.Chiplet{Name: "huge", Node: "7nm", D2D: d2d, Modules: []system.Module{{Name: "h", AreaMM2: 3e4}}}
	systems = append(systems,
		system.System{Name: "epyc", Scheme: packaging.MCM, Quantity: 1,
			Placements: []system.Placement{{Chiplet: ccd, Count: 8}, {Chiplet: iod, Count: 1}}},
		system.System{Name: "chip-first", Scheme: packaging.InFO, Flow: packaging.ChipFirst, Quantity: 1,
			Placements: []system.Placement{{Chiplet: iod, Count: 1}, {Chiplet: ccd, Count: 3}}},
		system.Monolithic("soc", "5nm", 300, 1),
		system.System{Name: "oversized-interposer", Scheme: packaging.TwoPointFiveD, Quantity: 1,
			Placements: []system.Placement{{Chiplet: ccd, Count: 1}, {Chiplet: huge, Count: 3}}},
	)
	var buf []float64
	for _, s := range systems {
		got, gotErr := e.packageGeometry(&s, &buf)
		want, wantErr := diesGeometry(e, s)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: err %v, per-die err %v", s.Name, gotErr, wantErr)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: geometry %v, per-die %v", s.Name, got, want)
		}
	}
	if s := systems[len(systems)-1]; s.Name != "oversized-interposer" {
		t.Fatal("error case moved")
	} else if _, err := e.packageGeometry(&s, new([]float64)); err == nil {
		t.Error("an interposer larger than the wafer was accepted")
	}
}
