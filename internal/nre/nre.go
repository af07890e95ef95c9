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
	"slices"
	"strings"

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
	// Consumers lists the systems that use the design, one entry per
	// system, in portfolio order.
	Consumers []Consumer
}

// Consumer is one system's use of a design.
type Consumer struct {
	// System is the system's index in the slice given to Portfolio.
	System int
	// Instances is how many copies of the design one system unit
	// mounts: the chiplet count for chip and module designs, the
	// count of D2D-bearing dies on the node for a D2D design, and 1
	// for a package design.
	Instances float64
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
// production that consumes it. Each design's volume is summed over its
// consumers in portfolio order, so the result is the same bits on
// every call.
func (e *Engine) Portfolio(systems []system.System, policy Policy) (Result, error) {
	if len(systems) == 0 {
		return Result{}, fmt.Errorf("nre: empty portfolio")
	}
	// PerUnit doubles as the duplicate-name check; the zero
	// breakdowns are overwritten once amortization has filled them.
	res := Result{PerUnit: make(map[string]Breakdown, len(systems))}
	for _, s := range systems {
		if err := s.Validate(e.db); err != nil {
			return Result{}, err
		}
		if _, dup := res.PerUnit[s.Name]; dup {
			return Result{}, fmt.Errorf("nre: duplicate system name %q", s.Name)
		}
		res.PerUnit[s.Name] = Breakdown{}
	}

	var designs []Design
	index := make(map[string]int)
	// kb holds the key being looked up; index[string(kb)] does not
	// allocate, so a key string is built only when a design is new.
	var kb []byte
	add := func(kind Kind, cost float64, sys int, instances float64) error {
		i, ok := index[string(kb)]
		if !ok {
			i = len(designs)
			key := string(kb)
			index[key] = i
			designs = append(designs, Design{Kind: kind, Key: key, Cost: cost})
		} else if prev := designs[i].Cost; prev != cost {
			return fmt.Errorf("nre: design %q used with two different costs (%v vs %v): same name must mean same design", designs[i].Key, prev, cost)
		}
		// Systems are walked in order, so a repeat add from this
		// system can only be the design's last consumer.
		d := &designs[i]
		if n := len(d.Consumers); n > 0 && d.Consumers[n-1].System == sys {
			d.Consumers[n-1].Instances += instances
		} else {
			d.Consumers = append(d.Consumers, Consumer{System: sys, Instances: instances})
		}
		return nil
	}

	var geomBuf []float64
	for si := range systems {
		s := &systems[si]
		// Module and chip designs, Eq. (6)/(8).
		for pi := range s.Placements {
			p := &s.Placements[pi]
			c := &p.Chiplet
			node, err := e.db.Node(c.Node)
			if err != nil {
				return Result{}, err
			}
			count := float64(p.Count)
			kb = append(append(kb[:0], "chip/"...), c.Name...)
			if err := add(ChipDesign, node.Kc*c.DieArea()+node.FixedChipNRE, si, count); err != nil {
				return Result{}, err
			}
			for _, m := range c.Modules {
				kb = append(append(append(append(kb[:0], "module/"...), c.Node...), '/'), m.Name...)
				if err := add(ModuleDesign, node.Km*m.AreaMM2, si, count); err != nil {
					return Result{}, err
				}
			}
			if c.D2DArea() > 0 {
				kb = append(append(kb[:0], "d2d/"...), c.Node...)
				if err := add(D2DDesign, node.D2DNRE, si, count); err != nil {
					return Result{}, err
				}
			}
		}
		// Package design, Eq. (7)/(8).
		geom, err := e.packageGeometry(s, &geomBuf)
		if err != nil {
			return Result{}, err
		}
		kp, fixed := s.Scheme.NREFactors()
		kb = append(append(kb[:0], "pkg/"...), s.PackageName()...)
		if err := add(PackageDesign, kp*geom+fixed, si, 1); err != nil {
			return Result{}, err
		}
	}

	// Amortize, in key order.
	slices.SortFunc(designs, func(a, b Design) int { return strings.Compare(a.Key, b.Key) })
	res.Designs = designs
	perUnit := make([]Breakdown, len(systems))
	for i := range designs {
		d := &designs[i]
		res.TotalNRE += d.Cost

		var denom float64
		for _, u := range d.Consumers {
			switch policy {
			case PerInstance:
				denom += systems[u.System].Quantity * u.Instances
			default:
				denom += systems[u.System].Quantity
			}
		}
		if denom <= 0 {
			return Result{}, fmt.Errorf("nre: design %q has no production volume to amortize over", d.Key)
		}
		for _, u := range d.Consumers {
			var share float64
			switch policy {
			case PerInstance:
				share = d.Cost * u.Instances / denom
			default:
				share = d.Cost / denom
			}
			b := &perUnit[u.System]
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
		}
	}
	for i := range systems {
		res.PerUnit[systems[i].Name] = perUnit[i]
	}
	return res, nil
}

// packageGeometry returns the NRE-relevant package area: substrate
// plus interposer. It prices the package with zero-value dies, which
// yields the geometry without needing KGD costs. Each placement's die
// area is computed once and repeated Count times, in die order. *buf
// is scratch space for the die areas and zero costs, grown as needed
// and kept for the next call.
func (e *Engine) packageGeometry(s *system.System, buf *[]float64) (float64, error) {
	n := s.DieCount()
	if cap(*buf) < 2*n {
		*buf = make([]float64, 2*n)
	}
	b := (*buf)[:2*n]
	areas, zeros := b[:0:n], b[n:]
	clear(zeros)
	for i := range s.Placements {
		p := &s.Placements[i]
		area := p.Chiplet.DieArea()
		for j := 0; j < p.Count; j++ {
			areas = append(areas, area)
		}
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
