package system

import (
	"fmt"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
)

// Uniform describes a system of k identical single-module chiplets —
// the shape every sweep candidate produced by PartitionEqual has.
// The cost and NRE engines use it to take a closed-form fast path
// whose arithmetic is bit-identical to the general per-placement
// walk, skipping the maps, sorts, and slices the general path needs.
type Uniform struct {
	K             int
	Node          string
	ModuleAreaMM2 float64 // per-chiplet module area
	D2DAreaMM2    float64 // per-chiplet D2D overhead area
	DieAreaMM2    float64 // ModuleAreaMM2 + D2DAreaMM2, in that order
}

// uniformMaxK bounds the O(k²) pairwise name-distinctness check; a
// wider system falls back to the general path, which is correct for
// any shape.
const uniformMaxK = 64

// AsUniform reports whether s is a uniform k-way system the engines
// can evaluate on the closed-form fast path. The detection is
// deliberately conservative: any shape it cannot prove equivalent —
// envelopes, salvage, multi-module chiplets, mixed nodes or areas,
// counts beyond 1, name collisions (which the slow path rejects with
// specific errors) — returns false, and the caller takes the general
// path. Validation errors the fast path CAN reproduce exactly
// (unknown node, negative quantity, zero volume, packaging
// infeasibility) do not disqualify a system.
func AsUniform(s System) (Uniform, bool) {
	if s.Name == "" || s.Envelope != nil {
		return Uniform{}, false
	}
	k := len(s.Placements)
	if k < 1 || k > uniformMaxK {
		return Uniform{}, false
	}
	if s.Scheme == packaging.SoC && k != 1 {
		return Uniform{}, false
	}
	var u Uniform
	for i := range s.Placements {
		p := &s.Placements[i]
		if p.Count != 1 {
			return Uniform{}, false
		}
		c := &p.Chiplet
		if c.Name == "" || c.Salvage != nil || len(c.Modules) != 1 {
			return Uniform{}, false
		}
		m := &c.Modules[0]
		if m.Name == "" || !(m.AreaMM2 > 0) {
			return Uniform{}, false
		}
		// ModuleArea/D2DArea/DieArea exactly as Chiplet.DieArea
		// computes them, so downstream math sees the same bits, without
		// copying the chiplet into those value-receiver methods: the
		// one-module sum is 0 + m.AreaMM2, which is m.AreaMM2 itself.
		modArea := m.AreaMM2
		var d2dArea float64
		if c.D2D != nil {
			d2dArea = c.D2D.Area(modArea)
		}
		dieArea := modArea + d2dArea
		if !(dieArea > 0) { // rejects NaN and non-positive too
			return Uniform{}, false
		}
		if i == 0 {
			u = Uniform{K: k, Node: c.Node, ModuleAreaMM2: modArea, D2DAreaMM2: d2dArea, DieAreaMM2: dieArea}
			continue
		}
		if c.Node != u.Node || modArea != u.ModuleAreaMM2 || d2dArea != u.D2DAreaMM2 {
			return Uniform{}, false
		}
		// The slow path errors on duplicate chiplet names (consistency
		// map) and duplicate NRE design keys; bail to it.
		for j := 0; j < i; j++ {
			prev := &s.Placements[j].Chiplet
			if sameName(prev.Name, c.Name) || sameName(prev.Modules[0].Name, m.Name) {
				return Uniform{}, false
			}
		}
	}
	return u, true
}

// sameName is a == b, comparing the last bytes first: the names of an
// equal partition share everything but their trailing sequence number,
// so a front-to-back compare would walk the whole common prefix.
func sameName(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Resolve looks up the shared node of uniform system s (u must come
// from AsUniform(s)) and runs the System.Validate checks this shape can
// still fail, in Validate's order — unknown node, then negative
// quantity — with Validate's error text byte for byte.
func (u Uniform) Resolve(s System, db *tech.Database) (tech.Node, error) {
	node, err := db.Node(u.Node)
	if err != nil {
		inner := fmt.Errorf("system: chiplet %q: %w", s.Placements[0].Chiplet.Name, err)
		return tech.Node{}, fmt.Errorf("system: %q: %w", s.Name, inner)
	}
	if s.Quantity < 0 {
		return tech.Node{}, fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	return node, nil
}

// PartialKey returns the packaging partial key of uniform system s:
// its scheme and flow, k dies, and the total die area folded the way
// Assembly.TotalDieArea folds it — k in-order adds of the die area —
// so the downstream float math keeps its bits.
func (u Uniform) PartialKey(s System) packaging.PartialKey {
	var total float64
	for i := 0; i < u.K; i++ {
		total += u.DieAreaMM2
	}
	return packaging.PartialKey{Scheme: s.Scheme, Flow: s.Flow, Dies: u.K, TotalDieAreaMM2: total}
}
