// Package cost computes the recurring-engineering (RE) cost of a
// system: the five-part breakdown of the paper's §3.2 — cost of raw
// chips, cost of chip defects, cost of the raw package, cost of
// package defects, and cost of known-good dies wasted by packaging
// defects. Bumping and wafer-sort costs are included inside the chip
// components but not itemized, exactly as the paper does.
package cost

import (
	"fmt"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/wafer"
	"chipletactuary/internal/yield"
)

// ErrDoesNotFitWafer is wrapped by die-cost and wafer-demand answers
// when a die (or interposer) is too large for even one placement on
// the production wafer. It is the wafer layer's sentinel, re-exported
// so cost-level callers can classify with errors.Is instead of
// matching message text.
var ErrDoesNotFitWafer = wafer.ErrDoesNotFit

// Engine evaluates RE costs against a technology database and a
// packaging parameter set. It holds no mutable state, so one engine
// can be shared by any number of goroutines.
type Engine struct {
	db     *tech.Database
	params packaging.Params
}

// NewEngine builds an engine, validating the packaging parameters.
func NewEngine(db *tech.Database, params packaging.Params) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("cost: nil technology database")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{db: db, params: params}, nil
}

// CacheStats used to report the hit/miss counters of the KGD cache.
//
// Deprecated: the engine no longer memoizes die evaluations; the type
// survives only for the benchmark harness and always reads zero. It
// will be removed.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// CacheStats returns the zero value.
//
// Deprecated: the engine no longer memoizes die evaluations; see the
// CacheStats type.
func (e *Engine) CacheStats() CacheStats { return CacheStats{} }

// DB returns the engine's technology database.
func (e *Engine) DB() *tech.Database { return e.db }

// Params returns the engine's packaging parameters.
func (e *Engine) Params() packaging.Params { return e.params }

// DieCost is the manufacturing cost detail of one die.
type DieCost struct {
	// Name and Node identify the chiplet design.
	Name string
	Node string
	// AreaMM2 is the die area (modules + D2D).
	AreaMM2 float64
	// Raw is the die's share of the wafer: waferCost/DPW, plus bump
	// and wafer-sort costs.
	Raw float64
	// Yield is the die yield from Eq. (1) — or, when the chiplet
	// enables salvage, the value-weighted effective yield.
	Yield float64
	// KGD is the cost of one known-good die: Raw/Yield.
	KGD float64
}

// Breakdown is the five-part RE cost of one system unit (§3.2).
type Breakdown struct {
	// RawChips is the defect-free manufacturing cost of all dies
	// (wafer share + bumping + wafer sort).
	RawChips float64
	// ChipDefects is the extra die spend caused by imperfect die
	// yield: Σ raw·(1/Y − 1).
	ChipDefects float64
	// RawPackage is the defect-free package cost (substrate,
	// interposer, assembly).
	RawPackage float64
	// PackageDefects is the extra packaging spend caused by packaging
	// yield loss.
	PackageDefects float64
	// WastedKGD is the value of known-good dies destroyed by
	// packaging defects.
	WastedKGD float64

	// Dies details each die, in placement order.
	Dies []DieCost
	// Packaging carries the geometry and yields behind the packaging
	// components.
	Packaging packaging.Result
}

// Total returns the full RE cost per system unit.
func (b Breakdown) Total() float64 {
	return b.RawChips + b.ChipDefects + b.RawPackage + b.PackageDefects + b.WastedKGD
}

// ChipsTotal returns the die-related cost (raw + defects).
func (b Breakdown) ChipsTotal() float64 { return b.RawChips + b.ChipDefects }

// PackagingTotal returns the packaging-related cost: raw package +
// package defects + wasted KGDs ("the cost of packaging" in the
// paper's Figure 5 note).
func (b Breakdown) PackagingTotal() float64 {
	return b.RawPackage + b.PackageDefects + b.WastedKGD
}

// WaferDemand is the production-planning view of a system: how many
// wafer starts each node needs to ship the given quantity, accounting
// for die yield and packaging losses.
type WaferDemand struct {
	// WafersByNode maps process node → wafer starts (fractional).
	WafersByNode map[string]float64
	// DiesByNode maps process node → raw dies fabricated.
	DiesByNode map[string]float64
}

// Wafers computes the wafer demand for producing quantity good units
// of the system. Each shipped unit consumes 1/packagingYield
// assembled attempts, and each attempted die consumes 1/dieYield raw
// dies.
func (e *Engine) Wafers(s system.System, quantity float64) (WaferDemand, error) {
	if quantity <= 0 {
		return WaferDemand{}, fmt.Errorf("cost: quantity %v must be positive", quantity)
	}
	b, err := e.RE(s)
	if err != nil {
		return WaferDemand{}, err
	}
	d := WaferDemand{
		WafersByNode: make(map[string]float64),
		DiesByNode:   make(map[string]float64),
	}
	attempts := quantity / b.Packaging.Yield
	for _, die := range b.Dies {
		rawDies := attempts / die.Yield
		dpw := e.params.Wafer.DiesPerWafer(e.params.Estimator, die.AreaMM2)
		if dpw <= 0 {
			return WaferDemand{}, fmt.Errorf("cost: die %q %w", die.Name, ErrDoesNotFitWafer)
		}
		d.DiesByNode[die.Node] += rawDies
		d.WafersByNode[die.Node] += rawDies / float64(dpw)
	}
	// Interposer wafers for advanced packaging.
	if s.Scheme.HasInterposer() {
		intNode := s.Scheme.InterposerNode()
		node, err := e.db.Node(intNode)
		if err != nil {
			return WaferDemand{}, err
		}
		intArea := b.Packaging.InterposerAreaMM2
		y1 := node.Yield(intArea)
		dpw := e.params.Wafer.DiesPerWafer(e.params.Estimator, intArea)
		if dpw <= 0 {
			return WaferDemand{}, fmt.Errorf("cost: interposer %w", ErrDoesNotFitWafer)
		}
		rawInterposers := attempts / y1
		d.DiesByNode[intNode] += rawInterposers
		d.WafersByNode[intNode] += rawInterposers / float64(dpw)
	}
	return d, nil
}

// REFloor returns a cheap lower bound on the RE cost of a uniform
// k-way system: k × KGD(node, dieArea). RawChips + ChipDefects is
// exactly Σ raw/yield = Σ KGD, and the packaging components (raw
// package, package defects, wasted KGDs) are non-negative under
// validated parameters, so RE ≥ k·KGD — and any total that adds
// non-negative NRE amortization on top is bounded too. The bound costs
// one die evaluation, which makes it cheap enough to run per candidate
// before evaluation (adaptive-search pruning).
//
// The boolean is false when no sound bound is available: a shape the
// uniform detector cannot prove (salvage, envelopes, mixed dies), an
// unknown node, or a pathological tech database pricing a die below
// zero. Callers must treat false as "cannot prune", never as an error
// — the evaluation path owns error reporting.
func (e *Engine) REFloor(s system.System) (float64, bool) {
	u, ok := system.AsUniform(s)
	if !ok {
		return 0, false
	}
	node, err := e.db.Node(u.Node)
	if err != nil {
		return 0, false
	}
	dc, err := e.dieCost(&node, &s.Placements[0].Chiplet, u.DieAreaMM2)
	if err != nil || !(dc.KGD >= 0) {
		return 0, false
	}
	return float64(u.K) * dc.KGD, true
}

// dieCost evaluates one die of the given area (c.DieArea()) on its
// already-resolved node: its wafer share plus bump and sort cost, its
// yield (Eq. 1, or the salvage-weighted yield) and their KGD quotient.
func (e *Engine) dieCost(node *tech.Node, c *system.Chiplet, area float64) (DieCost, error) {
	perDie, err := e.params.Wafer.CostPerRawDie(e.params.Estimator, node.WaferCost, area)
	if err != nil {
		return DieCost{}, fmt.Errorf("cost: die %q: %w", c.Name, err)
	}
	raw := perDie + (node.BumpCostPerMM2+node.SortCostPerMM2)*area
	y := node.Yield(area)
	if c.Salvage != nil {
		// Partial-good harvesting credits degraded bins against
		// this die's cost (yield.Salvage).
		y = yield.Salvage{
			Model:               node.YieldModel(),
			SalvageableFraction: c.Salvage.Fraction,
			SalvageValue:        c.Salvage.Value,
		}.EffectiveYield(area)
	}
	return DieCost{Name: c.Name, Node: c.Node, AreaMM2: area, Raw: raw, Yield: y, KGD: raw / y}, nil
}

// RE computes the recurring cost of one unit of the system. Systems
// the detector can prove uniform (the shape every sweep candidate
// has) take a closed-form fast path with bit-identical results; any
// other shape takes the general per-placement walk.
func (e *Engine) RE(s system.System) (Breakdown, error) {
	if u, ok := system.AsUniform(s); ok {
		return e.REUniform(s, u)
	}
	return e.reSlow(s)
}

// REUniform evaluates a uniform k-way system with one die evaluation
// and one packaging partial, reproducing the general walk's arithmetic
// — including its error messages — bit for bit. Callers that already
// hold the system's shape use it to skip RE's detection pass; u must
// come from system.AsUniform(s). It resolves the node and the partial
// and hands them to REUniformOn.
func (e *Engine) REUniform(s system.System, u system.Uniform) (Breakdown, error) {
	node, err := u.Resolve(s, e.db)
	if err != nil {
		return Breakdown{}, err
	}
	pt, ptErr := packaging.PartialFor(e.params, e.db, u.PartialKey(s))
	return e.REUniformOn(s, u, &node, &pt, ptErr)
}

// REUniformOn is REUniform's body for a caller that has already
// resolved the shape: node and the System.Validate checks from
// u.Resolve(s, db), and pt and ptErr from packaging.PartialFor on
// u.PartialKey(s) with this engine's database and parameters. Like the
// general walk, it reports a die error before ptErr. A caller pricing
// NRE from the same node and partial (explore.Evaluator.Single) thus
// resolves them once for both engines.
func (e *Engine) REUniformOn(s system.System, u system.Uniform, node *tech.Node, pt *packaging.Partial, ptErr error) (Breakdown, error) {
	dc, err := e.dieCost(node, &s.Placements[0].Chiplet, u.DieAreaMM2)
	if err != nil {
		return Breakdown{}, err
	}
	if !(dc.KGD >= 0) {
		// A pathological tech database (negative cost coefficients)
		// can price a die below zero; the general path rejects that
		// in assembly validation, so let it.
		return e.reSlow(s)
	}
	if ptErr != nil {
		return Breakdown{}, ptErr
	}
	k := u.K
	b := Breakdown{Dies: make([]DieCost, k)}
	var totalKGD float64
	for i := 0; i < k; i++ {
		// Field by field into the zeroed slice: no DieCost temporary.
		d := &b.Dies[i]
		d.Name, d.Node, d.AreaMM2 = s.Placements[i].Chiplet.Name, dc.Node, dc.AreaMM2
		d.Raw, d.Yield, d.KGD = dc.Raw, dc.Yield, dc.KGD
		b.RawChips += dc.Raw
		b.ChipDefects += dc.Raw * (1/dc.Yield - 1)
		totalKGD += dc.KGD
	}
	pkg := pt.Apply(totalKGD)
	b.Packaging = pkg
	b.RawPackage = pkg.RawPackage
	b.PackageDefects = pkg.PackageDefects
	b.WastedKGD = pkg.WastedKGD
	return b, nil
}

// reSlow is the general per-placement walk. Each placement is priced
// once — one node lookup, one die evaluation — and its Count copies are
// then laid out in die order, each adding its share to the chip totals.
func (e *Engine) reSlow(s system.System) (Breakdown, error) {
	if err := s.Validate(e.db); err != nil {
		return Breakdown{}, err
	}
	n := s.DieCount()
	b := Breakdown{Dies: make([]DieCost, 0, n)}
	buf := make([]float64, 2*n)
	areas, kgds := buf[:0:n], buf[n:n]
	for i := range s.Placements {
		p := &s.Placements[i]
		c := &p.Chiplet
		node, err := e.db.Node(c.Node)
		if err != nil {
			return Breakdown{}, err
		}
		dc, err := e.dieCost(&node, c, c.DieArea())
		if err != nil {
			return Breakdown{}, err
		}
		defects := dc.Raw * (1/dc.Yield - 1)
		for j := 0; j < p.Count; j++ {
			b.Dies = append(b.Dies, dc)
			b.RawChips += dc.Raw
			b.ChipDefects += defects
			areas = append(areas, dc.AreaMM2)
			kgds = append(kgds, dc.KGD)
		}
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
