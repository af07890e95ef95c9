// Package nre implements the non-recurring-engineering cost model of
// the paper's §3.3 (Eq. 6–8): module design, chip design, package
// design, fixed per-tapeout costs (masks + IP) and the per-node D2D
// interface design, de-duplicated across a portfolio of systems and
// amortized over production quantity.
//
// The central accounting rule is design identity: a module design is
// paid once per (module name, node); a chip design once per chiplet
// name; a package design once per package name (systems sharing an
// Envelope share its design); the D2D interface once per process node
// that any multi-chip member uses. This is exactly how Eq. (7) models
// module reuse in SoC portfolios and Eq. (8) models the added chip
// and package reuse of multi-chip portfolios.
package nre

import (
	"fmt"
	"sort"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// Policy selects how a design's NRE is split across the systems that
// consume it. See DESIGN.md §3.
type Policy int

const (
	// PerSystemUnit (the default, used for all paper figures) splits
	// a design's cost over the total number of system units that
	// include it, regardless of how many copies each system mounts:
	// a design is done once no matter how often it is instantiated.
	PerSystemUnit Policy = iota
	// PerInstance splits over the total number of design instances
	// shipped, so a system mounting four copies bears four shares.
	// Kept as an ablation.
	PerInstance
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PerSystemUnit:
		return "per-system-unit"
	case PerInstance:
		return "per-instance"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Kind classifies a design.
type Kind int

const (
	// ModuleDesign is module design + block verification (Km·Sm).
	ModuleDesign Kind = iota
	// ChipDesign is chip physical design + system verification +
	// fixed tapeout cost (Kc·Sc + C).
	ChipDesign
	// PackageDesign is the package/interposer design (Kp·Sp + Cp).
	PackageDesign
	// D2DDesign is the per-node D2D interface design (C_D2D).
	D2DDesign
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ModuleDesign:
		return "module"
	case ChipDesign:
		return "chip"
	case PackageDesign:
		return "package"
	case D2DDesign:
		return "d2d"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Design is one de-duplicated NRE line item.
type Design struct {
	Kind Kind
	// Key is the design identity, e.g. "chip/ccd", "d2d/7nm".
	Key string
	// Cost is the total one-time cost of the design.
	Cost float64
	// InstancesBySystem records, per consuming system name, how many
	// copies one system unit mounts (1 for package and D2D designs).
	InstancesBySystem map[string]float64
}

// Breakdown is the amortized NRE per system unit, split by kind.
type Breakdown struct {
	Modules  float64
	Chips    float64
	Packages float64
	D2D      float64
}

// Total returns the summed per-unit NRE.
func (b Breakdown) Total() float64 {
	return b.Modules + b.Chips + b.Packages + b.D2D
}

// Result is the portfolio NRE evaluation.
type Result struct {
	// Designs lists every de-duplicated design, sorted by key.
	Designs []Design
	// TotalNRE is the portfolio's one-time cost (Σ design costs).
	TotalNRE float64
	// PerUnit maps system name → amortized NRE per produced unit.
	PerUnit map[string]Breakdown
}

// Engine evaluates NRE against a technology database and packaging
// parameters (needed for package geometry).
type Engine struct {
	db     *tech.Database
	params packaging.Params
}

// NewEngine builds an NRE engine.
func NewEngine(db *tech.Database, params packaging.Params) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("nre: nil technology database")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{db: db, params: params}, nil
}

// Single evaluates one system as a one-member portfolio.
func (e *Engine) Single(s system.System, policy Policy) (Result, error) {
	return e.Portfolio([]system.System{s}, policy)
}

// Portfolio evaluates the NRE of a group of systems built together,
// de-duplicating shared designs and amortizing each design over the
// production that consumes it.
func (e *Engine) Portfolio(systems []system.System, policy Policy) (Result, error) {
	if len(systems) == 0 {
		return Result{}, fmt.Errorf("nre: empty portfolio")
	}
	seen := make(map[string]bool, len(systems))
	for _, s := range systems {
		if err := s.Validate(e.db); err != nil {
			return Result{}, err
		}
		if seen[s.Name] {
			return Result{}, fmt.Errorf("nre: duplicate system name %q", s.Name)
		}
		seen[s.Name] = true
	}

	designs := make(map[string]*Design)
	costs := make(map[string]float64) // sanity: identical key ⇒ identical cost
	add := func(kind Kind, key string, cost float64, sys string, instances float64) error {
		if prev, ok := costs[key]; ok {
			if prev != cost {
				return fmt.Errorf("nre: design %q used with two different costs (%v vs %v): same name must mean same design", key, prev, cost)
			}
		} else {
			costs[key] = cost
			designs[key] = &Design{Kind: kind, Key: key, Cost: cost, InstancesBySystem: map[string]float64{}}
		}
		designs[key].InstancesBySystem[sys] += instances
		return nil
	}

	for _, s := range systems {
		// Module and chip designs, Eq. (6)/(8).
		for _, p := range s.Placements {
			c := p.Chiplet
			node, err := e.db.Node(c.Node)
			if err != nil {
				return Result{}, err
			}
			chipCost := node.Kc*c.DieArea() + node.FixedChipNRE
			if err := add(ChipDesign, "chip/"+c.Name, chipCost, s.Name, float64(p.Count)); err != nil {
				return Result{}, err
			}
			for _, m := range c.Modules {
				mCost := node.Km * m.AreaMM2
				key := "module/" + c.Node + "/" + m.Name
				if err := add(ModuleDesign, key, mCost, s.Name, float64(p.Count)); err != nil {
					return Result{}, err
				}
			}
			if c.D2DArea() > 0 {
				if err := add(D2DDesign, "d2d/"+c.Node, node.D2DNRE, s.Name, float64(p.Count)); err != nil {
					return Result{}, err
				}
			}
		}
		// Package design, Eq. (7)/(8).
		geom, err := e.packageGeometry(s)
		if err != nil {
			return Result{}, err
		}
		kp, fixed := s.Scheme.NREFactors()
		pkgCost := kp*geom + fixed
		if err := add(PackageDesign, "pkg/"+s.PackageName(), pkgCost, s.Name, 1); err != nil {
			return Result{}, err
		}
	}

	// Amortize.
	quantity := make(map[string]float64, len(systems))
	for _, s := range systems {
		quantity[s.Name] = s.Quantity
	}
	res := Result{PerUnit: make(map[string]Breakdown, len(systems))}
	keys := make([]string, 0, len(designs))
	for k := range designs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := designs[k]
		res.Designs = append(res.Designs, *d)
		res.TotalNRE += d.Cost

		var denom float64
		for sys, inst := range d.InstancesBySystem {
			switch policy {
			case PerInstance:
				denom += quantity[sys] * inst
			default:
				denom += quantity[sys]
			}
		}
		if denom <= 0 {
			return Result{}, fmt.Errorf("nre: design %q has no production volume to amortize over", d.Key)
		}
		for sys, inst := range d.InstancesBySystem {
			var share float64
			switch policy {
			case PerInstance:
				share = d.Cost * inst / denom
			default:
				share = d.Cost / denom
			}
			b := res.PerUnit[sys]
			switch d.Kind {
			case ModuleDesign:
				b.Modules += share
			case ChipDesign:
				b.Chips += share
			case PackageDesign:
				b.Packages += share
			case D2DDesign:
				b.D2D += share
			}
			res.PerUnit[sys] = b
		}
	}
	return res, nil
}

// packageGeometry returns the NRE-relevant package area: substrate
// plus interposer. It prices the package with zero-value dies, which
// yields the geometry without needing KGD costs.
func (e *Engine) packageGeometry(s system.System) (float64, error) {
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
