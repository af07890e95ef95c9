package experiments

import (
	"fmt"
	"io"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/montecarlo"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/report"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// Robustness quantifies how stable the paper's headline conclusions
// are when the least certain inputs move: every Monte Carlo scenario
// perturbs defect densities, wafer prices, substrate cost, design
// cost and micro-bump yield, then re-derives each conclusion. The
// paper itself flags this need ("applying the model to other cases
// makes it necessary to include the latest relevant data", §4).

// RobustnessSeed makes the experiment reproducible; results are
// identical across runs and platforms for a given seed.
const RobustnessSeed = 2022

// RobustnessRow summarizes one conclusion's distribution.
type RobustnessRow struct {
	// Conclusion names the paper claim under test.
	Conclusion string
	// Median, P10, P90 summarize the sampled metric.
	Median, P10, P90 float64
	// HoldProbability is the fraction of scenarios where the
	// conclusion held.
	HoldProbability float64
	// Failures counts infeasible scenarios (excluded).
	Failures int
}

// Robustness runs the Monte Carlo study with n scenarios per
// conclusion under a ±rel parameter band.
func Robustness(db *tech.Database, params packaging.Params, n int, rel float64) ([]RobustnessRow, error) {
	if n < 10 {
		return nil, fmt.Errorf("experiments: robustness needs ≥10 scenarios, got %d", n)
	}
	space := montecarlo.DefaultSpace(rel)
	d2d := dtod.Fraction{F: Fig4D2DFraction}
	fig5 := DefaultFig5Config()
	fig5.CoreCounts = []int{64}

	type study struct {
		name   string
		metric montecarlo.Metric
		holds  func(v float64) bool
	}
	studies := []study{
		{
			name: "5nm/800mm² SoC defect share > 50%",
			metric: func(s montecarlo.Scenario) (float64, error) {
				eng, err := cost.NewEngine(s.DB, s.Params)
				if err != nil {
					return 0, err
				}
				b, err := eng.RE(system.Monolithic("m", "5nm", 800, 1))
				if err != nil {
					return 0, err
				}
				return b.ChipDefects / b.Total(), nil
			},
			holds: func(v float64) bool { return v > 0.50 },
		},
		{
			name: "5nm/800mm² MCM pay-back ≤ 2M units",
			metric: func(s montecarlo.Scenario) (float64, error) {
				ev, err := explore.NewEvaluator(s.DB, s.Params)
				if err != nil {
					return 0, err
				}
				soc := system.Monolithic("soc", "5nm", 800, 1)
				mcm, err := system.PartitionEqual("mcm", "5nm", 800, 2, packaging.MCM, d2d, 1)
				if err != nil {
					return 0, err
				}
				return ev.CrossoverQuantity(soc, mcm)
			},
			holds: func(v float64) bool { return v <= 2_000_000 },
		},
		{
			name: "64-core chiplet beats monolithic (ratio < 1)",
			metric: func(s montecarlo.Scenario) (float64, error) {
				res, err := Fig5WithConfig(s.DB, s.Params, fig5)
				if err != nil {
					return 0, err
				}
				return res.Rows[0].CostRatio(), nil
			},
			holds: func(v float64) bool { return v < 1 },
		},
		{
			name: "2.5D packaging share at 7nm/900mm² in [0.35, 0.65]",
			metric: func(s montecarlo.Scenario) (float64, error) {
				eng, err := cost.NewEngine(s.DB, s.Params)
				if err != nil {
					return 0, err
				}
				sys, err := system.PartitionEqual("p", "7nm", 900, 3, packaging.TwoPointFiveD, d2d, 1)
				if err != nil {
					return 0, err
				}
				b, err := eng.RE(sys)
				if err != nil {
					return 0, err
				}
				return b.PackagingTotal() / b.Total(), nil
			},
			holds: func(v float64) bool { return v >= 0.35 && v <= 0.65 },
		},
	}

	var rows []RobustnessRow
	for i, st := range studies {
		res, err := montecarlo.Run(n, RobustnessSeed+int64(i), space, db, params, st.metric)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness %q: %w", st.name, err)
		}
		held := 0
		for _, v := range res.Samples {
			if st.holds(v) {
				held++
			}
		}
		rows = append(rows, RobustnessRow{
			Conclusion:      st.name,
			Median:          res.Quantile(0.5),
			P10:             res.Quantile(0.1),
			P90:             res.Quantile(0.9),
			HoldProbability: float64(held) / float64(len(res.Samples)),
			Failures:        res.Failures,
		})
	}
	return rows, nil
}

// RenderRobustness writes the robustness table.
func RenderRobustness(w io.Writer, rows []RobustnessRow, n int, rel float64) error {
	tab := report.NewTable(
		fmt.Sprintf("Robustness — %d Monte Carlo scenarios, ±%.0f%% parameter bands", n, rel*100),
		"conclusion", "P10", "median", "P90", "P(holds)")
	for _, r := range rows {
		tab.MustAddRow(r.Conclusion,
			fmt.Sprintf("%.3g", r.P10),
			fmt.Sprintf("%.3g", r.Median),
			fmt.Sprintf("%.3g", r.P90),
			fmt.Sprintf("%.0f%%", r.HoldProbability*100))
	}
	return tab.WriteText(w)
}
