package experiments

import (
	"fmt"
	"io"

	"chipletactuary/internal/explore"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/report"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
)

// Figure 10 setup (§5.3): n chiplet types with a common footprint
// populated into a k-socket package in every possible collocation,
// 500k units per system. The paper compares SoC, MCM and 2.5D
// averages over five (k, n) configurations. Socket module area is not
// stated in the paper; we use 150 mm² at 7nm so that even the largest
// monolithic comparator (4 sockets → 600 mm²) stays under the reticle.
var (
	Fig10Node       = "7nm"
	Fig10SocketArea = 150.0
	Fig10Quantity   = 500_000.0
	Fig10Configs    = []struct{ K, N int }{
		{2, 2}, {2, 4}, {3, 4}, {4, 4}, {4, 6},
	}
	Fig10Schemes = []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.TwoPointFiveD}
)

// Fig10Cell aggregates one (config, scheme) bar: the average per-unit
// cost over all systems of the configuration, normalized to the
// configuration's SoC average RE.
type Fig10Cell struct {
	K, N    int
	Scheme  packaging.Scheme
	Systems int

	// Normalized average components.
	AvgRE         float64
	AvgNREModules float64
	AvgNREChips   float64
	AvgNREPkgs    float64
	AvgNRED2D     float64
}

// Total returns the normalized average total cost.
func (c Fig10Cell) Total() float64 {
	return c.AvgRE + c.AvgNREModules + c.AvgNREChips + c.AvgNREPkgs + c.AvgNRED2D
}

// NREShare returns the amortized-NRE fraction of the average total.
func (c Fig10Cell) NREShare() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return (t - c.AvgRE) / t
}

// Fig10Result is the FSMC exploration.
type Fig10Result struct {
	Cells []Fig10Cell
}

// Cell finds the bar for (k, n, scheme).
func (r Fig10Result) Cell(k, n int, scheme packaging.Scheme) (Fig10Cell, error) {
	for _, c := range r.Cells {
		if c.K == k && c.N == n && c.Scheme == scheme {
			return c, nil
		}
	}
	return Fig10Cell{}, fmt.Errorf("experiments: fig10 has no cell (k=%d, n=%d, %v)", k, n, scheme)
}

// Fig10 reproduces Figure 10: the normalized average total cost of
// the FSMC reuse scheme.
func Fig10(ev *explore.Evaluator) (Fig10Result, error) {
	res := Fig10Result{Cells: make([]Fig10Cell, 0, len(Fig10Configs)*len(Fig10Schemes))}
	for _, cfg := range Fig10Configs {
		cells, err := fig10Config(ev, cfg.K, cfg.N)
		if err != nil {
			return Fig10Result{}, err
		}
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

// fig10Config prices one (k, n) configuration of Figure 10: its SoC,
// MCM and 2.5D bars, in that order.
func fig10Config(ev *explore.Evaluator, k, n int) ([]Fig10Cell, error) {
	cols, err := reuse.Collocations(n, k)
	if err != nil {
		return nil, err
	}
	moduleNames := make([]string, n)
	for t := range moduleNames {
		moduleNames[t] = fmt.Sprintf("T%d-module", t+1)
	}
	// SoC comparators: one monolithic chip per collocation, with the
	// T-module designs shared across the whole family.
	socs := make([]system.System, 0, len(cols))
	for _, col := range cols {
		modules := make([]system.Module, 0, col.Size())
		for t, count := range col.Counts {
			for i := 0; i < count; i++ {
				modules = append(modules, system.Module{
					Name: moduleNames[t], AreaMM2: Fig10SocketArea, Scalable: true,
				})
			}
		}
		label := col.Label()
		socs = append(socs, system.System{
			Name:   label + "-SoC",
			Scheme: packaging.SoC,
			Placements: []system.Placement{{
				Chiplet: system.Chiplet{Name: label + "-soc-die", Node: Fig10Node, Modules: modules},
				Count:   1,
			}},
			Quantity: Fig10Quantity,
		})
	}
	socCosts, err := ev.Portfolio(socs, nre.PerSystemUnit)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig10 SoC family (k=%d,n=%d): %w", k, n, err)
	}
	var socREAvg float64
	for _, s := range socs {
		socREAvg += socCosts[s.Name].RE.Total()
	}
	socREAvg /= float64(len(socs))

	cells := make([]Fig10Cell, 0, len(Fig10Schemes))
	addCell := func(scheme packaging.Scheme, costs map[string]explore.TotalCost, family []system.System) {
		cell := Fig10Cell{K: k, N: n, Scheme: scheme, Systems: len(family)}
		for _, s := range family {
			tc := costs[s.Name]
			cell.AvgRE += tc.RE.Total()
			cell.AvgNREModules += tc.NRE.Modules
			cell.AvgNREChips += tc.NRE.Chips
			cell.AvgNREPkgs += tc.NRE.Packages
			cell.AvgNRED2D += tc.NRE.D2D
		}
		f := float64(len(family)) * socREAvg
		cell.AvgRE /= f
		cell.AvgNREModules /= f
		cell.AvgNREChips /= f
		cell.AvgNREPkgs /= f
		cell.AvgNRED2D /= f
		cells = append(cells, cell)
	}
	addCell(packaging.SoC, socCosts, socs)

	params := ev.Cost.Params()
	for _, scheme := range []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD} {
		family, err := reuse.FSMC(reuse.FSMCConfig{
			Node: Fig10Node, ModuleAreaMM2: Fig10SocketArea,
			Types: n, Sockets: k,
			Scheme: scheme, QuantityPerSystem: Fig10Quantity, Params: params,
		})
		if err != nil {
			return nil, err
		}
		costs, err := ev.Portfolio(family, nre.PerSystemUnit)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 %v (k=%d,n=%d): %w", scheme, k, n, err)
		}
		addCell(scheme, costs, family)
	}
	return cells, nil
}

// Render writes the FSMC table.
func (r Fig10Result) Render(w io.Writer) error {
	tab := report.NewTable(
		"Figure 10 — FSMC reuse (7nm, 150 mm² sockets, 500k/system; normalized to SoC average RE per config)",
		"config", "systems", "scheme", "avg RE", "avg NRE modules", "avg NRE chips", "avg NRE pkgs+D2D", "avg total", "NRE share")
	for _, c := range r.Cells {
		tab.MustAddRow(
			fmt.Sprintf("k=%d n=%d", c.K, c.N),
			fmt.Sprintf("%d", c.Systems),
			c.Scheme.String(),
			fmt.Sprintf("%.2f", c.AvgRE),
			fmt.Sprintf("%.3f", c.AvgNREModules),
			fmt.Sprintf("%.3f", c.AvgNREChips),
			fmt.Sprintf("%.3f", c.AvgNREPkgs+c.AvgNRED2D),
			fmt.Sprintf("%.2f", c.Total()),
			fmt.Sprintf("%.0f%%", c.NREShare()*100),
		)
	}
	return tab.WriteText(w)
}
