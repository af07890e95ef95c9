package nre

import (
	"fmt"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
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
// system.AsUniform(s). It resolves the node and the packaging partial
// and hands them to EvaluateUniformOn.
func (e *Engine) EvaluateUniform(s system.System, u system.Uniform, policy Policy) (Breakdown, error) {
	// Error order mirrors the general path: validation (unknown node,
	// negative quantity), then package geometry, then amortization.
	node, err := u.Resolve(s, e.db)
	if err != nil {
		return Breakdown{}, err
	}
	pt, err := packaging.PartialFor(e.params, e.db, u.PartialKey(s))
	if err != nil {
		return Breakdown{}, err
	}
	return e.EvaluateUniformOn(s, u, &node, &pt, policy)
}

// EvaluateUniformOn is EvaluateUniform's body for a caller that has
// already resolved the shape without error: node from
// u.Resolve(s, db) and pt from packaging.PartialFor on
// u.PartialKey(s). What remains to fail is amortization over a zero
// volume. A caller pricing RE from the same node and partial
// (explore.Evaluator.Single) thus resolves them once for both engines.
func (e *Engine) EvaluateUniformOn(s system.System, u system.Uniform, node *tech.Node, pt *packaging.Partial, policy Policy) (Breakdown, error) {
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
	// u.DieAreaMM2 is Chiplet.DieArea's sum, bit for bit.
	t := uniformTerms{
		chipCost:   node.Kc*u.DieAreaMM2 + node.FixedChipNRE,
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
