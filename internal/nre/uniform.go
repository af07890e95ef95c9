package nre

import (
	"fmt"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// uniformTerms is everything quantity-independent about one uniform
// shape: the un-amortized per-design costs.
type uniformTerms struct {
	chipCost   float64
	moduleCost float64
	d2dCost    float64
	hasD2D     bool
	pkgCost    float64
}

// EvaluateUniform computes the per-unit NRE breakdown of a uniform
// k-way system on the closed-form fast path, bit-identical to
// Portfolio([]system.System{s}).PerUnit[s.Name] — including error
// messages and their ordering. Callers must pass a u obtained from
// system.AsUniform(s).
func (e *Engine) EvaluateUniform(s system.System, u system.Uniform, policy Policy) (Breakdown, error) {
	// Error order mirrors the general path: validation (unknown node,
	// negative quantity), then package geometry, then amortization.
	node, err := e.db.Node(u.Node)
	if err != nil {
		return Breakdown{}, system.WrapUniformNodeErr(s, err)
	}
	if s.Quantity < 0 {
		return Breakdown{}, fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	// dieArea reconstructed in Chiplet.DieArea's add order, and the
	// total die area exactly as Assembly.TotalDieArea sums it: k
	// in-order additions.
	dieArea := u.ModuleAreaMM2 + u.D2DAreaMM2
	var totalDie float64
	for i := 0; i < u.K; i++ {
		totalDie += dieArea
	}
	pt, err := packaging.PartialFor(e.params, e.db, packaging.PartialKey{
		Scheme:          s.Scheme,
		Flow:            s.Flow,
		Dies:            u.K,
		TotalDieAreaMM2: totalDie,
	})
	if err != nil {
		return Breakdown{}, err
	}
	q := s.Quantity
	if q == 0 {
		// The general path reports the first design in sorted key
		// order; "chip/" sorts before "d2d/", "module/", "pkg/", so
		// that is the lexicographically smallest chiplet name.
		min := s.Placements[0].Chiplet.Name
		for i := 1; i < len(s.Placements); i++ {
			if n := s.Placements[i].Chiplet.Name; n < min {
				min = n
			}
		}
		return Breakdown{}, fmt.Errorf("nre: design %q has no production volume to amortize over", "chip/"+min)
	}
	kp, fixed := s.Scheme.NREFactors()
	t := uniformTerms{
		chipCost:   node.Kc*dieArea + node.FixedChipNRE,
		moduleCost: node.Km * u.ModuleAreaMM2,
		d2dCost:    node.D2DNRE,
		hasD2D:     u.D2DAreaMM2 > 0,
		pkgCost:    kp*(pt.Result.SubstrateAreaMM2+pt.Result.InterposerAreaMM2) + fixed,
	}
	return amortizeUniform(t, u.K, q, policy), nil
}

// amortizeUniform spreads a uniform shape's per-design costs over the
// production volume.
func amortizeUniform(ent uniformTerms, k int, q float64, policy Policy) Breakdown {
	var b Breakdown
	switch policy {
	case PerInstance:
		// Module, chip and package designs mount one instance per
		// system unit, so their shares reduce to (cost·1)/(q·1); the
		// D2D design accumulates one instance per placement, giving
		// (cost·k)/(q·k). Both are written in the general path's
		// exact expression shape to preserve the bits.
		denom1 := q * 1.0
		cShare := ent.chipCost * 1.0 / denom1
		mShare := ent.moduleCost * 1.0 / denom1
		for i := 0; i < k; i++ {
			b.Chips += cShare
		}
		for i := 0; i < k; i++ {
			b.Modules += mShare
		}
		if ent.hasD2D {
			kf := float64(k)
			b.D2D += ent.d2dCost * kf / (q * kf)
		}
		b.Packages += ent.pkgCost * 1.0 / denom1
	default:
		cShare := ent.chipCost / q
		mShare := ent.moduleCost / q
		for i := 0; i < k; i++ {
			b.Chips += cShare
		}
		for i := 0; i < k; i++ {
			b.Modules += mShare
		}
		if ent.hasD2D {
			b.D2D += ent.d2dCost / q
		}
		b.Packages += ent.pkgCost / q
	}
	return b
}
