package cost

import (
	"fmt"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// literalRE is the general RE walk transcribed die by die: expand every
// placement into its dies, look up each die's node and price it, then
// package the dies. RE must agree with it to the bit.
func literalRE(e *Engine, s system.System) (Breakdown, error) {
	if err := s.Validate(e.db); err != nil {
		return Breakdown{}, err
	}
	dies := s.Dies()
	var b Breakdown
	areas := make([]float64, len(dies))
	kgds := make([]float64, len(dies))
	b.Dies = make([]DieCost, len(dies))
	for i := range dies {
		c := &dies[i]
		node, err := e.db.Node(c.Node)
		if err != nil {
			return Breakdown{}, err
		}
		dc, err := e.dieCost(&node, c, c.DieArea())
		if err != nil {
			return Breakdown{}, err
		}
		b.Dies[i] = dc
		b.RawChips += dc.Raw
		b.ChipDefects += dc.Raw * (1/dc.Yield - 1)
		areas[i] = dc.AreaMM2
		kgds[i] = dc.KGD
	}
	asm := packaging.Assembly{DieAreasMM2: areas, KGDCosts: kgds}
	if s.Envelope != nil {
		asm.FootprintOverrideMM2 = s.Envelope.FootprintMM2
		asm.InterposerOverrideMM2 = s.Envelope.InterposerAreaMM2
	}
	pkg, err := packaging.Package(e.params, e.db, s.Scheme, s.Flow, asm)
	if err != nil {
		return Breakdown{}, err
	}
	b.Packaging = pkg
	b.RawPackage = pkg.RawPackage
	b.PackageDefects = pkg.PackageDefects
	b.WastedKGD = pkg.WastedKGD
	return b, nil
}

// exact renders a breakdown with every float in its shortest
// round-trip form, so two renderings are equal only if every field
// has the same value, signed zeros included.
func exact(b Breakdown) string { return fmt.Sprintf("%+v", b) }

// epycRows builds Figure 5's chiplet products: n 7nm CCDs around one
// 12nm IO die, on the early-production defect densities.
func epycRows(t *testing.T) (*Engine, []system.System) {
	t.Helper()
	db := tech.Default()
	for name, d := range map[string]float64{"7nm": 0.13, "12nm": 0.12} {
		n, err := db.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		if db, err = db.Override(n.WithDefectDensity(d)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngine(db, packaging.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d2d := dtod.Fraction{F: 0.10}
	ccd := system.Chiplet{Name: "ccd", Node: "7nm", D2D: d2d,
		Modules: []system.Module{{Name: "ccd-cores", AreaMM2: 74 * 0.9, Scalable: true}}}
	iod := system.Chiplet{Name: "iod", Node: "12nm", D2D: d2d,
		Modules: []system.Module{{Name: "iod-logic", AreaMM2: 416 * 0.9}}}
	var out []system.System
	for _, n := range []int{2, 3, 4, 6, 8} {
		out = append(out, system.System{
			Name: fmt.Sprintf("epyc-%d", 8*n), Scheme: packaging.MCM, Quantity: 1,
			Placements: []system.Placement{{Chiplet: ccd, Count: n}, {Chiplet: iod, Count: 1}},
		})
	}
	return e, out
}

// TestREMatchesPerDieWalk diffs RE against the die-by-die walk on
// shapes with several placements and counts above one.
func TestREMatchesPerDieWalk(t *testing.T) {
	e := engine(t)
	epycEng, epyc := epycRows(t)
	type tc struct {
		e *Engine
		s system.System
	}
	var cases []tc
	for _, s := range epyc {
		cases = append(cases, tc{epycEng, s})
	}
	for _, scheme := range []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD} {
		for _, cfg := range []struct{ k, n int }{{2, 2}, {3, 4}, {4, 6}} {
			family, err := reuse.FSMC(reuse.FSMCConfig{
				Node: "7nm", ModuleAreaMM2: 150, Types: cfg.n, Sockets: cfg.k,
				Scheme: scheme, QuantityPerSystem: 5e5, Params: e.params,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range family {
				cases = append(cases, tc{e, s})
			}
		}
	}
	salvaged := system.Chiplet{Name: "core", Node: "5nm", D2D: dtod.Fraction{F: 0.1},
		Modules: []system.Module{{Name: "cores", AreaMM2: 120}},
		Salvage: &system.SalvageSpec{Fraction: 0.6, Value: 0.7}}
	io := system.Chiplet{Name: "io", Node: "14nm", D2D: dtod.Fraction{F: 0.1},
		Modules: []system.Module{{Name: "phy", AreaMM2: 90}, {Name: "ctrl", AreaMM2: 40}}}
	cases = append(cases,
		tc{e, system.System{Name: "salvage", Scheme: packaging.MCM, Quantity: 1,
			Placements: []system.Placement{{Chiplet: salvaged, Count: 4}, {Chiplet: io, Count: 2}}}},
		tc{e, system.System{Name: "chip-first", Scheme: packaging.InFO, Flow: packaging.ChipFirst, Quantity: 1,
			Placements: []system.Placement{{Chiplet: io, Count: 1}, {Chiplet: salvaged, Count: 3}}}},
	)
	for _, c := range cases {
		got, gotErr := c.e.RE(c.s)
		want, wantErr := literalRE(c.e, c.s)
		if gotErr != nil || wantErr != nil {
			t.Errorf("%s: RE err %v, per-die walk err %v", c.s.Name, gotErr, wantErr)
			continue
		}
		if exact(got) != exact(want) {
			t.Errorf("%s: RE and the per-die walk differ\n got %s\nwant %s", c.s.Name, exact(got), exact(want))
		}
	}
}

// TestREErrorsMatchPerDieWalk checks the general walk fails on the
// same die with the same text as the per-die walk.
func TestREErrorsMatchPerDieWalk(t *testing.T) {
	e := engine(t)
	small := system.Chiplet{Name: "small", Node: "7nm", D2D: dtod.Fraction{F: 0.1},
		Modules: []system.Module{{Name: "m", AreaMM2: 50}}}
	lost := small
	lost.Name, lost.Node = "lost", "1nm"
	huge := small
	huge.Name, huge.Modules = "huge", []system.Module{{Name: "h", AreaMM2: 1e6}}
	for _, s := range []system.System{
		{Name: "unknown-node", Scheme: packaging.MCM, Quantity: 1,
			Placements: []system.Placement{{Chiplet: small, Count: 2}, {Chiplet: lost, Count: 1}}},
		{Name: "too-large", Scheme: packaging.MCM, Quantity: 1,
			Placements: []system.Placement{{Chiplet: small, Count: 1}, {Chiplet: huge, Count: 3}}},
	} {
		_, gotErr := e.RE(s)
		_, wantErr := literalRE(e, s)
		if gotErr == nil || wantErr == nil {
			t.Errorf("%s: RE err %v, per-die walk err %v; want both to fail", s.Name, gotErr, wantErr)
			continue
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: RE err %q, per-die walk err %q", s.Name, gotErr, wantErr)
		}
	}
}
