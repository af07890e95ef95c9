package nre

import (
	"fmt"
	"math"

	"chipletactuary/internal/memo"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// uniformKey names the axes one uniform system's NRE terms actually
// depend on: the node (module/chip/D2D cost factors), the scheme and
// flow (package NRE factors and geometry), the per-chiplet areas, and
// the partition width. The system name and quantity are deliberately
// excluded — they only label and amortize the cached terms.
type uniformKey struct {
	node       string
	scheme     packaging.Scheme
	flow       packaging.Flow
	k          int
	moduleArea float64
	d2dArea    float64
}

// uniformKeyHash is inline FNV-1a over the key's fields. memo
// finalizes it before picking a shard and set, so it only has to be
// cheap and collision-light.
func uniformKeyHash(k uniformKey) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(k.node); i++ {
		h = (h ^ uint64(k.node[i])) * 1099511628211
	}
	h = (h ^ (uint64(k.scheme)<<24 | uint64(k.flow)<<16 | uint64(uint16(k.k)))) * 1099511628211
	h = (h ^ math.Float64bits(k.moduleArea)) * 1099511628211
	h = (h ^ math.Float64bits(k.d2dArea)) * 1099511628211
	return h
}

// uniformEntry caches everything quantity-independent about one
// uniform shape: the un-amortized per-design costs and the errors
// that are fully determined by the key.
type uniformEntry struct {
	nodeErr    error // unknown node; wrapped with system/chiplet names per call
	chipCost   float64
	moduleCost float64
	d2dCost    float64
	hasD2D     bool
	pkgCost    float64
	pkgErr     error
}

// uniformCache bounds the NRE term memo table.
type uniformCache = memo.Cache[uniformKey, uniformEntry]

// NewEngineWithCaches builds an engine whose uniform-shape NRE terms
// are memoized (cacheSize entries; ≤ 0 disables) and whose package
// geometry probes go through the given partial cache — typically the
// same instance the evaluator's cost engine uses, so a sweep point
// prices its package once across both engines. A nil partials cache
// just disables that sharing.
func NewEngineWithCaches(db *tech.Database, params packaging.Params, partials *packaging.PartialCache, cacheSize int) (*Engine, error) {
	e, err := NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	e.partials = partials
	e.uni = memo.New[uniformKey, uniformEntry](cacheSize, uniformKeyHash)
	return e, nil
}

// CacheStats reports the uniform-term cache's counters (zero when
// disabled).
func (e *Engine) CacheStats() memo.Stats { return e.uni.Stats() }

// computeUniform fills a uniformEntry from scratch.
func (e *Engine) computeUniform(k uniformKey) uniformEntry {
	node, err := e.db.Node(k.node)
	if err != nil {
		return uniformEntry{nodeErr: err}
	}
	// dieArea reconstructed in Chiplet.DieArea's add order.
	dieArea := k.moduleArea + k.d2dArea
	ent := uniformEntry{
		chipCost:   node.Kc*dieArea + node.FixedChipNRE,
		moduleCost: node.Km * k.moduleArea,
		d2dCost:    node.D2DNRE,
		hasD2D:     k.d2dArea > 0,
	}
	// Total die area exactly as Assembly.TotalDieArea sums it: k
	// in-order additions.
	var totalDie float64
	for i := 0; i < k.k; i++ {
		totalDie += dieArea
	}
	pt, err := packaging.CachedPartial(e.partials, e.params, e.db, packaging.PartialKey{
		Scheme:          k.scheme,
		Flow:            k.flow,
		Dies:            k.k,
		TotalDieAreaMM2: totalDie,
	})
	if err != nil {
		ent.pkgErr = err
		return ent
	}
	geom := pt.Result.SubstrateAreaMM2 + pt.Result.InterposerAreaMM2
	kp, fixed := k.scheme.NREFactors()
	ent.pkgCost = kp*geom + fixed
	return ent
}

// EvaluateUniform computes the per-unit NRE breakdown of a uniform
// k-way system on the closed-form fast path, bit-identical to
// Portfolio([]system.System{s}).PerUnit[s.Name] — including error
// messages and their ordering. Callers must pass a u obtained from
// system.AsUniform(s).
func (e *Engine) EvaluateUniform(s system.System, u system.Uniform, policy Policy) (Breakdown, error) {
	key := uniformKey{
		node:       u.Node,
		scheme:     s.Scheme,
		flow:       s.Flow,
		k:          u.K,
		moduleArea: u.ModuleAreaMM2,
		d2dArea:    u.D2DAreaMM2,
	}
	ent, ok := e.uni.Get(key)
	if !ok {
		ent = e.computeUniform(key)
		e.uni.Put(key, ent)
	}
	// Error order mirrors the general path: validation (unknown node,
	// negative quantity), then package geometry, then amortization.
	if ent.nodeErr != nil {
		return Breakdown{}, system.WrapUniformNodeErr(s, ent.nodeErr)
	}
	if s.Quantity < 0 {
		return Breakdown{}, fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	if ent.pkgErr != nil {
		return Breakdown{}, ent.pkgErr
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
	return amortizeUniform(ent, u.K, q, policy), nil
}

// amortizeUniform spreads a cached uniform entry's per-design costs
// over the production volume.
func amortizeUniform(ent uniformEntry, k int, q float64, policy Policy) Breakdown {
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
