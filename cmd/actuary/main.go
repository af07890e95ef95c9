// Command actuary evaluates the manufacturing (RE) and design (NRE)
// cost of chiplet systems described in JSON.
//
// Usage:
//
//	actuary -config system.json    [-tech tech.json] [-policy per-system-unit] [-quantity N]
//	actuary -portfolio family.json [flags]
//	actuary -scenario batch.json   [-workers N] [-top N] [-pareto] [flags]
//
// -config evaluates one system (schema: actuary.SystemConfig, example
// in cmd/actuary/testdata/epyc.json); -portfolio a family of systems
// sharing designs; -scenario a v2 batch scenario (schema:
// actuary.ScenarioConfig — systems, declarative sweeps and question
// selection) fanned out over a concurrent Session.
//
// With -top N and/or -pareto the scenario is streamed instead of
// materialized: requests flow lazily from the sweep grids through
// Session.Stream into online aggregators, so memory stays O(N + front)
// however many points the scenario declares. -top prints the N
// cheapest total-cost points; -pareto prints the RE-vs-amortized-NRE
// Pareto front.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"chipletactuary"
	"chipletactuary/internal/report"
	"chipletactuary/internal/units"
)

func main() {
	// Ctrl-C cancels the context, which stops scenario generation and
	// drains in-flight Stream/Evaluate work instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "actuary:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("actuary", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to the system JSON description")
	portfolioPath := fs.String("portfolio", "", "path to a portfolio JSON description (family of systems sharing designs)")
	scenarioPath := fs.String("scenario", "", "path to a v2 scenario JSON description (batch of systems, sweeps and questions)")
	techPath := fs.String("tech", "", "optional technology database JSON (default: built-in)")
	policyName := fs.String("policy", "per-system-unit", "NRE amortization policy: per-system-unit or per-instance")
	quantity := fs.Float64("quantity", 0, "override the config's production quantity")
	designs := fs.Bool("designs", false, "also print the de-duplicated NRE design inventory")
	workers := fs.Int("workers", 0, "worker pool width for -scenario (default: one per CPU)")
	topN := fs.Int("top", 0, "stream -scenario and print only the N cheapest total-cost points")
	pareto := fs.Bool("pareto", false, "stream -scenario and print the RE vs amortized-NRE Pareto front")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	nInputs := 0
	for _, p := range []string{*configPath, *portfolioPath, *scenarioPath} {
		if p != "" {
			nInputs++
		}
	}
	if nInputs != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one of -config, -portfolio or -scenario is required")
	}

	db := actuary.DefaultTech()
	if *techPath != "" {
		var err error
		db, err = actuary.LoadTechFile(*techPath)
		if err != nil {
			return err
		}
	}
	policy, err := actuary.ParsePolicy(*policyName)
	if err != nil {
		return err
	}

	if *scenarioPath != "" {
		// -quantity and -designs have no meaning for a batch scenario;
		// reject them instead of silently ignoring them. -policy (when
		// given explicitly) overrides the scenario file's policy.
		set := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["quantity"] || set["designs"] {
			return fmt.Errorf("-quantity and -designs are not supported with -scenario")
		}
		policyOverride := ""
		if set["policy"] {
			policyOverride = *policyName
		}
		if *topN < 0 {
			return fmt.Errorf("-top wants a positive count, got %d", *topN)
		}
		return runScenario(ctx, out, db, *scenarioPath, *workers, policyOverride, *topN, *pareto)
	}
	if *topN != 0 || *pareto {
		return fmt.Errorf("-top and -pareto require -scenario")
	}
	s, err := actuary.NewSession(actuary.WithTech(db))
	if err != nil {
		return err
	}
	if *portfolioPath != "" {
		pcfg, err := actuary.LoadPortfolioConfig(*portfolioPath)
		if err != nil {
			return err
		}
		systems, err := pcfg.Build(s.Packaging())
		if err != nil {
			return err
		}
		if *quantity > 0 {
			for i := range systems {
				systems[i].Quantity = *quantity
			}
		}
		return renderPortfolio(out, s, pcfg.Name, systems, policy)
	}

	cfg, err := actuary.LoadSystemConfig(*configPath)
	if err != nil {
		return err
	}
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	if *quantity > 0 {
		sys.Quantity = *quantity
	}
	res := s.Evaluate(ctx, []actuary.Request{{Question: actuary.QuestionTotalCost, System: sys, Policy: policy}})[0]
	if res.Err != nil {
		return res.Err
	}
	tc := *res.TotalCost
	for _, warning := range sys.Warnings() {
		fmt.Fprintf(out, "warning: %s\n", warning)
	}
	if err := render(out, sys, tc); err != nil {
		return err
	}
	if err := renderWafers(ctx, out, s, sys); err != nil {
		return err
	}
	if *designs {
		fmt.Fprintln(out)
		return renderDesigns(out, s, sys, policy)
	}
	return nil
}

// runScenario evaluates a v2 scenario on a concurrent Session: as a
// materialized batch by default, or — when -top/-pareto ask for an
// aggregate — as a lazy stream reduced online in bounded memory.
func runScenario(ctx context.Context, out io.Writer, db *actuary.TechDatabase, path string, workers int,
	policyOverride string, topN int, pareto bool) error {
	cfg, err := actuary.LoadScenarioConfig(path)
	if err != nil {
		return err
	}
	if policyOverride != "" {
		cfg.Policy = policyOverride
	}
	opts := []actuary.Option{actuary.WithTech(db)}
	if workers > 0 {
		opts = append(opts, actuary.WithWorkers(workers))
	}
	s, err := actuary.NewSession(opts...)
	if err != nil {
		return err
	}
	if topN > 0 || pareto {
		return streamScenario(ctx, out, s, cfg, topN, pareto)
	}
	reqs, err := cfg.Requests()
	if err != nil {
		return err
	}
	results := s.Evaluate(ctx, reqs)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("scenario %q interrupted: %w", cfg.Name, err)
	}

	fmt.Fprintf(out, "scenario %q: %d request(s)\n\n", cfg.Name, len(reqs))
	tab := report.NewTable("Batch evaluation results", "request", "question", "answer")
	failures := 0
	for _, r := range results {
		tab.MustAddRow(r.ID, r.Question.String(), renderAnswer(r))
		if r.Err != nil {
			failures++
		}
	}
	if err := tab.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%d ok, %d failed\n", len(results)-failures, failures)
	return nil
}

// streamScenario drives the scenario through Session.Stream and online
// aggregators instead of materializing a request slice.
func streamScenario(ctx context.Context, out io.Writer, s *actuary.Session, cfg actuary.ScenarioConfig, topN int, pareto bool) error {
	// When total-cost is also selected, every sweep point already
	// reaches the aggregators as its own result; a sweep-best answer
	// over the same grid would feed them the winners a second time.
	hasTotalCost := len(cfg.Questions) == 0
	hasSweepBest := false
	for _, name := range cfg.Questions {
		q, err := actuary.ParseQuestion(name)
		if err != nil {
			return err
		}
		hasTotalCost = hasTotalCost || q == actuary.QuestionTotalCost
		hasSweepBest = hasSweepBest || q == actuary.QuestionSweepBest
	}
	if hasTotalCost && hasSweepBest {
		kept := cfg.Questions[:0:0]
		for _, name := range cfg.Questions {
			if q, _ := actuary.ParseQuestion(name); q != actuary.QuestionSweepBest {
				kept = append(kept, name)
			}
		}
		cfg.Questions = kept
		fmt.Fprintln(out, "note: sweep-best skipped under -top/-pareto (per-point total-cost results already cover every sweep point)")
	}
	// A sweep-best answer only retains its own top_k points; make sure
	// each sweep keeps at least the -top N the user asked to see.
	if topN > 0 {
		sweeps := make([]actuary.SweepConfig, len(cfg.Sweeps))
		copy(sweeps, cfg.Sweeps)
		for i := range sweeps {
			if sweeps[i].TopK < topN {
				sweeps[i].TopK = topN
			}
		}
		cfg.Sweeps = sweeps
	}
	src, spec, err := cfg.StreamSource()
	if err != nil {
		return err
	}
	ch, err := s.Stream(ctx, src, spec)
	if err != nil {
		return err
	}
	var stats actuary.StreamStats
	aggs := []actuary.StreamAggregator{&stats}
	var top *actuary.CostTopK
	if topN > 0 {
		top = actuary.NewCostTopK(topN)
		aggs = append(aggs, top)
	}
	var front *actuary.CostPareto
	if pareto {
		front = actuary.NewCostPareto()
		aggs = append(aggs, front)
	}
	seen := actuary.Reduce(ch, aggs...)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("scenario %q interrupted after %d result(s): %w", cfg.Name, seen, err)
	}
	if seen == 0 {
		return fmt.Errorf("scenario %q streamed no results (every sweep point pruned)", cfg.Name)
	}

	fmt.Fprintf(out, "scenario %q: %d result(s) streamed\n\n", cfg.Name, seen)
	if top != nil {
		tab := report.NewTable(fmt.Sprintf("Top %d design points by total cost", topN),
			"request", "total", "RE", "NRE/unit")
		for _, r := range top.Results() {
			tab.MustAddRow(r.ID, units.Dollars(r.TotalCost.Total()),
				units.Dollars(r.TotalCost.RE.Total()), units.Dollars(r.TotalCost.NRE.Total()))
		}
		if err := tab.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if front != nil {
		tab := report.NewTable("Pareto front: RE vs amortized NRE (both minimized)",
			"request", "RE", "NRE/unit", "total")
		for _, r := range front.Front() {
			tab.MustAddRow(r.ID, units.Dollars(r.TotalCost.RE.Total()),
				units.Dollars(r.TotalCost.NRE.Total()), units.Dollars(r.TotalCost.Total()))
		}
		if err := tab.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%d ok, %d failed, %d non-cost", stats.OK, stats.Failed, stats.Skipped)
	if stats.Cost.Count > 0 {
		fmt.Fprintf(out, "; cheapest %s at %s", stats.Cost.MinID, units.Dollars(stats.Cost.Min))
	}
	fmt.Fprintln(out)
	return nil
}

// renderAnswer formats one batch result's payload for the table.
func renderAnswer(r actuary.Result) string {
	if r.Err != nil {
		if ae, ok := actuary.AsError(r.Err); ok {
			return fmt.Sprintf("error [%s]: %v", ae.Code, ae.Err)
		}
		return "error: " + r.Err.Error()
	}
	switch r.Question {
	case actuary.QuestionTotalCost:
		return fmt.Sprintf("%s/unit (RE %s + NRE %s)", units.Dollars(r.TotalCost.Total()),
			units.Dollars(r.TotalCost.RE.Total()), units.Dollars(r.TotalCost.NRE.Total()))
	case actuary.QuestionRE:
		return units.Dollars(r.RE.Total()) + "/unit RE"
	case actuary.QuestionWafers:
		var starts float64
		for _, w := range r.Wafers.WafersByNode {
			starts += w
		}
		return fmt.Sprintf("%.0f wafer starts over %d node(s)", starts, len(r.Wafers.WafersByNode))
	case actuary.QuestionCrossoverQuantity:
		return fmt.Sprintf("pays back at %.0f units", r.Quantity)
	case actuary.QuestionOptimalChipletCount:
		best := r.Points[r.Best]
		return fmt.Sprintf("best k=%d at %s/unit (%d feasible)",
			best.Chiplets, units.Dollars(best.Total.Total()), len(r.Points))
	case actuary.QuestionAreaCrossover:
		return fmt.Sprintf("crossover at %s", units.Area(r.AreaMM2))
	case actuary.QuestionSweepBest:
		b := r.SweepBest
		best := b.Top[0]
		answer := fmt.Sprintf("best %s at %s/unit (%d evaluated, %d pruned, front %d)",
			best.ID, units.Dollars(best.Total.Total()), b.Summary.Count, b.Pruned, len(b.Pareto))
		if b.Infeasible > 0 {
			answer += fmt.Sprintf("; %d point(s) failed, first: %v",
				b.Infeasible, actuary.FailureCause(b.FirstFailure))
		}
		return answer
	case actuary.QuestionSearchBest:
		b := r.SearchBest
		best := b.Top[0]
		answer := fmt.Sprintf("best %s at %s/unit (evaluated %d/%d, %.1f%%, %d bound-pruned, %d stage(s))",
			best.ID, units.Dollars(best.Total.Total()), b.Stats.Evaluated,
			b.Stats.GridSize, 100*b.Stats.EvaluatedRatio(), b.Stats.BoundPruned, b.Stats.Stages)
		if b.Stats.BudgetExhausted {
			answer += "; budget exhausted"
		}
		return answer
	default:
		return "?"
	}
}

func renderPortfolio(out io.Writer, s *actuary.Session, name string,
	systems []actuary.System, policy actuary.AmortizationPolicy) error {
	costs, err := s.Portfolio(systems, policy)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "portfolio %q: %d systems sharing designs (%s amortization)\n\n",
		name, len(systems), policy)
	tab := report.NewTable("Per-unit cost by system",
		"system", "scheme", "dies", "quantity", "RE", "NRE/unit", "total", "NRE share")
	for _, sys := range systems {
		tc := costs[sys.Name]
		tab.MustAddRow(sys.Name, sys.Scheme.String(),
			fmt.Sprintf("%d", sys.DieCount()),
			fmt.Sprintf("%.0f", sys.Quantity),
			units.Dollars(tc.RE.Total()),
			units.Dollars(tc.NRE.Total()),
			units.Dollars(tc.Total()),
			units.Percent(tc.NREShare()))
	}
	if err := tab.WriteText(out); err != nil {
		return err
	}
	res, err := s.Evaluator().NRE.Portfolio(systems, policy)
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	inv := report.NewTable("Shared design inventory", "kind", "design", "one-time cost", "used by")
	for _, d := range res.Designs {
		inv.MustAddRow(d.Kind.String(), d.Key, units.Dollars(d.Cost),
			fmt.Sprintf("%d system(s)", len(d.Consumers)))
	}
	inv.MustAddRow("", "total", units.Dollars(res.TotalNRE), "")
	return inv.WriteText(out)
}

func renderDesigns(out io.Writer, s *actuary.Session, sys actuary.System, policy actuary.AmortizationPolicy) error {
	res, err := s.Evaluator().NRE.Portfolio([]actuary.System{sys}, policy)
	if err != nil {
		return err
	}
	tab := report.NewTable("NRE design inventory", "kind", "design", "one-time cost")
	for _, d := range res.Designs {
		tab.MustAddRow(d.Kind.String(), d.Key, units.Dollars(d.Cost))
	}
	tab.MustAddRow("", "total", units.Dollars(res.TotalNRE))
	return tab.WriteText(out)
}

func render(out io.Writer, sys actuary.System, tc actuary.TotalCost) error {
	fmt.Fprintf(out, "system %q: %s, %d dies, %.0f mm² silicon, quantity %.0f\n\n",
		sys.Name, sys.Scheme, sys.DieCount(), sys.TotalDieArea(), sys.Quantity)

	re := report.NewTable("Recurring cost per unit (§3.2)", "component", "cost", "share")
	total := tc.RE.Total()
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"raw chips", tc.RE.RawChips},
		{"chip defects", tc.RE.ChipDefects},
		{"raw package", tc.RE.RawPackage},
		{"package defects", tc.RE.PackageDefects},
		{"wasted KGD", tc.RE.WastedKGD},
	} {
		re.MustAddRow(row.name, units.Dollars(row.v), units.Percent(row.v/total))
	}
	re.MustAddRow("total RE", units.Dollars(total), "100.0%")
	if err := re.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	nre := report.NewTable("Amortized NRE per unit (§3.3)", "component", "cost")
	nre.MustAddRow("modules", units.Dollars(tc.NRE.Modules))
	nre.MustAddRow("chips", units.Dollars(tc.NRE.Chips))
	nre.MustAddRow("packages", units.Dollars(tc.NRE.Packages))
	nre.MustAddRow("D2D interfaces", units.Dollars(tc.NRE.D2D))
	nre.MustAddRow("total NRE/unit", units.Dollars(tc.NRE.Total()))
	if err := nre.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "total engineering cost per unit: %s (NRE share %s)\n",
		units.Dollars(tc.Total()), units.Percent(tc.NREShare()))

	dies := report.NewTable("Per-die detail", "die", "node", "area", "yield", "KGD cost")
	for _, d := range tc.RE.Dies {
		dies.MustAddRow(d.Name, d.Node, units.Area(d.AreaMM2), units.Percent(d.Yield), units.Dollars(d.KGD))
	}
	fmt.Fprintln(out)
	return dies.WriteText(out)
}

func renderWafers(ctx context.Context, out io.Writer, s *actuary.Session, sys actuary.System) error {
	if sys.Quantity <= 0 {
		return nil
	}
	res := s.Evaluate(ctx, []actuary.Request{{Question: actuary.QuestionWafers, System: sys, Quantity: sys.Quantity}})[0]
	if res.Err != nil {
		return res.Err
	}
	demand := res.Wafers
	tab := report.NewTable(
		fmt.Sprintf("Wafer demand for %.0f units", sys.Quantity),
		"node", "raw dies", "wafer starts")
	// Stable ordering for deterministic output.
	nodes := make([]string, 0, len(demand.WafersByNode))
	for node := range demand.WafersByNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		tab.MustAddRow(node,
			fmt.Sprintf("%.0f", demand.DiesByNode[node]),
			fmt.Sprintf("%.0f", demand.WafersByNode[node]))
	}
	fmt.Fprintln(out)
	return tab.WriteText(out)
}
