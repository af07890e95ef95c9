package experiments

import (
	"fmt"
	"io"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/report"
	"chipletactuary/internal/system"
)

// Fig4D2DFraction is the paper's D2D area assumption for the RE grid
// ("Referring to EPYC, 10% of the D2D interface overhead is assumed").
const Fig4D2DFraction = 0.10

// Fig4Nodes and Fig4ChipletCounts span the 3×3 grid of Figure 4.
var (
	Fig4Nodes         = []string{"14nm", "7nm", "5nm"}
	Fig4ChipletCounts = []int{2, 3, 5}
	Fig4AreasMM2      = []float64{100, 200, 300, 400, 500, 600, 700, 800, 900}
	Fig4Schemes       = []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
)

// Fig4Bar is one stacked bar of Figure 4: a (node, chiplet count,
// area, scheme) cell with its five RE components. Matching the
// figure's "Cost / Area" axis, each component is the cost *per mm² of
// module area* normalized so the same node's 100 mm² SoC equals 1.
type Fig4Bar struct {
	Node     string
	Chiplets int // 1 for the SoC bars
	AreaMM2  float64
	Scheme   packaging.Scheme

	// Normalized components (RawChips + ChipDefects + RawPackage +
	// PackageDefects + WastedKGD sums to Total).
	RawChips       float64
	ChipDefects    float64
	RawPackage     float64
	PackageDefects float64
	WastedKGD      float64
}

// Total returns the normalized total RE cost of the bar.
func (b Fig4Bar) Total() float64 {
	return b.RawChips + b.ChipDefects + b.RawPackage + b.PackageDefects + b.WastedKGD
}

// PackagingShare returns the packaging fraction (raw package +
// defects + wasted KGD) of the bar's total.
func (b Fig4Bar) PackagingShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return (b.RawPackage + b.PackageDefects + b.WastedKGD) / t
}

// Fig4Result is the full grid, indexed by [node][chipletCount] with a
// flat bar list per panel.
type Fig4Result struct {
	// Panels[node][k] lists the bars of one subplot in area-major,
	// scheme-minor order.
	Panels map[string]map[int][]Fig4Bar
	// Reference[node] is the absolute RE total of the node's 100 mm²
	// SoC, the panel's normalization base.
	Reference map[string]float64
}

// Fig4 reproduces Figure 4: the normalized RE cost comparison among
// integrations, technologies, areas and chiplet counts.
func Fig4(eng *cost.Engine) (Fig4Result, error) {
	res := Fig4Result{
		Panels:    make(map[string]map[int][]Fig4Bar, len(Fig4Nodes)),
		Reference: make(map[string]float64, len(Fig4Nodes)),
	}
	for _, node := range Fig4Nodes {
		ref, err := fig4Reference(eng, node)
		if err != nil {
			return Fig4Result{}, err
		}
		res.Reference[node] = ref
		res.Panels[node] = make(map[int][]Fig4Bar, len(Fig4ChipletCounts))
		for _, k := range Fig4ChipletCounts {
			bars := make([]Fig4Bar, 0, len(Fig4AreasMM2)*len(Fig4Schemes))
			for _, area := range Fig4AreasMM2 {
				for _, scheme := range Fig4Schemes {
					b, err := fig4Bar(eng, node, k, area, scheme, ref)
					if err != nil {
						return Fig4Result{}, err
					}
					bars = append(bars, b)
				}
			}
			res.Panels[node][k] = bars
		}
	}
	return res, nil
}

// fig4Reference returns the absolute RE total of node's 100 mm² SoC,
// the normalization base of the node's panels.
func fig4Reference(eng *cost.Engine, node string) (float64, error) {
	ref, err := eng.RE(system.Monolithic("ref", node, 100, 1))
	if err != nil {
		return 0, fmt.Errorf("experiments: fig4 reference %s: %w", node, err)
	}
	return ref.Total(), nil
}

// fig4Bar prices one bar of node's k-chiplet panel (the SoC bar is a
// single die) and normalizes it by the node's reference total ref.
func fig4Bar(eng *cost.Engine, node string, k int, area float64, scheme packaging.Scheme, ref float64) (Fig4Bar, error) {
	if scheme == packaging.SoC {
		k = 1
	}
	s, err := system.PartitionEqual("cell", node, area, k, scheme, dtod.Fraction{F: Fig4D2DFraction}, 1)
	if err != nil {
		return Fig4Bar{}, err
	}
	b, err := eng.RE(s)
	if err != nil {
		return Fig4Bar{}, fmt.Errorf("experiments: fig4 %s k=%d %.0fmm² %v: %w", node, k, area, scheme, err)
	}
	// Per-area normalization: the reference is the 100 mm² SoC's cost
	// per mm².
	n := ref / 100 * area
	return Fig4Bar{
		Node: node, Chiplets: k, AreaMM2: area, Scheme: scheme,
		RawChips:       b.RawChips / n,
		ChipDefects:    b.ChipDefects / n,
		RawPackage:     b.RawPackage / n,
		PackageDefects: b.PackageDefects / n,
		WastedKGD:      b.WastedKGD / n,
	}, nil
}

// Bar returns the grid cell for (node, k, area, scheme); k is the
// partition count of the panel (the SoC bar inside it has Chiplets=1).
func (r Fig4Result) Bar(node string, k int, areaMM2 float64, scheme packaging.Scheme) (Fig4Bar, error) {
	panel, ok := r.Panels[node]
	if !ok {
		return Fig4Bar{}, fmt.Errorf("experiments: fig4 has no node %q", node)
	}
	bars, ok := panel[k]
	if !ok {
		return Fig4Bar{}, fmt.Errorf("experiments: fig4 %s has no panel k=%d", node, k)
	}
	for _, b := range bars {
		if b.AreaMM2 == areaMM2 && b.Scheme == scheme {
			return b, nil
		}
	}
	return Fig4Bar{}, fmt.Errorf("experiments: fig4 %s k=%d has no bar (%.0f mm², %v)", node, k, areaMM2, scheme)
}

// Render writes one table per panel, mirroring the figure's layout.
func (r Fig4Result) Render(w io.Writer) error {
	for _, node := range Fig4Nodes {
		for _, k := range Fig4ChipletCounts {
			title := fmt.Sprintf("Figure 4 — %s, %d chiplets (normalized to %s 100 mm² SoC)", node, k, node)
			tab := report.NewTable(title,
				"area", "scheme", "raw chips", "chip defects", "raw pkg", "pkg defects", "wasted KGD", "total")
			for _, b := range r.Panels[node][k] {
				tab.MustAddRow(
					fmt.Sprintf("%.0f", b.AreaMM2),
					b.Scheme.String(),
					fmt.Sprintf("%.3f", b.RawChips),
					fmt.Sprintf("%.3f", b.ChipDefects),
					fmt.Sprintf("%.3f", b.RawPackage),
					fmt.Sprintf("%.3f", b.PackageDefects),
					fmt.Sprintf("%.3f", b.WastedKGD),
					fmt.Sprintf("%.3f", b.Total()),
				)
			}
			if err := tab.WriteText(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
