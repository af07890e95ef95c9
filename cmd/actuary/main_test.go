package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chipletactuary"
)

func TestRunEPYCExample(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"epyc-64core-like", "9 dies", "Recurring cost", "wasted KGD",
		"Amortized NRE", "total engineering cost", "Per-die detail", "iod",
		"Wafer demand", "wafer starts",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunQuantityOverride(t *testing.T) {
	var lo, hi bytes.Buffer
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-quantity", "100000"}, &lo); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-quantity", "10000000"}, &hi); err != nil {
		t.Fatal(err)
	}
	if lo.String() == hi.String() {
		t.Error("quantity override had no effect")
	}
}

func TestRunPortfolio(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-portfolio", "testdata/scms-family.json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"scms-7nm-family", "3 systems", "grade-1x", "grade-4x",
		"Shared design inventory", "chip/X", "pkg/family-4x", "3 system(s)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("portfolio output missing %q:\n%s", want, s)
		}
	}
	// The chip design must appear once (shared), so "chip/" occurs
	// exactly once in the inventory.
	if got := strings.Count(s, "chip/"); got != 1 {
		t.Errorf("chip designs listed %d times, want 1 (shared)", got)
	}
}

func TestRunPortfolioErrors(t *testing.T) {
	var out bytes.Buffer
	// Both -config and -portfolio.
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-portfolio", "testdata/scms-family.json"}, &out); err == nil {
		t.Error("both flags accepted")
	}
	if err := run(context.Background(), []string{"-portfolio", "/missing.json"}, &out); err == nil {
		t.Error("missing portfolio accepted")
	}
}

func TestRunScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"server-roadmap", "Batch evaluation results",
		"epyc-like/total-cost", "compute-a800-k4/total-cost",
		"compute-a800-k2/crossover-quantity", "pays back",
		"compute-a800/optimal-chiplet-count", "best k=",
		"ok, 0 failed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("scenario output missing %q:\n%s", want, s)
		}
	}
}

func TestRunScenarioAcceptsV1Config(t *testing.T) {
	// A bare v1 SystemConfig is a one-system scenario.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "testdata/epyc.json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "epyc-64core-like/total-cost") {
		t.Errorf("v1 fallback output missing the default question:\n%s", s)
	}
}

func TestRunScenarioErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "/missing.json"}, &out); err == nil {
		t.Error("missing scenario accepted")
	}
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-config", "testdata/epyc.json"}, &out); err == nil {
		t.Error("-scenario together with -config accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 3, "name": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-scenario", bad}, &out); err == nil {
		t.Error("unsupported scenario version accepted")
	}
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-quantity", "5"}, &out); err == nil {
		t.Error("-quantity accepted with -scenario")
	}
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-designs"}, &out); err == nil {
		t.Error("-designs accepted with -scenario")
	}
}

func TestRunScenarioTopMatchesMaterialized(t *testing.T) {
	// The streamed -top path must surface exactly the points the
	// materialized batch ranks cheapest, in the same order.
	cfg, err := actuary.LoadScenarioConfig("testdata/roadmap-scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var costed []actuary.Result
	for _, r := range s.Evaluate(context.Background(), reqs) {
		if r.Err == nil && r.TotalCost != nil {
			costed = append(costed, r)
		}
	}
	sort.Slice(costed, func(i, j int) bool {
		return costed[i].TotalCost.Total() < costed[j].TotalCost.Total()
	})
	if len(costed) < 3 {
		t.Fatalf("scenario yields only %d total-cost results", len(costed))
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	lines := strings.Split(got, "\n")
	// The three best IDs must appear in the table, in rank order.
	pos := make([]int, 3)
	for rank := 0; rank < 3; rank++ {
		pos[rank] = -1
		for i, line := range lines {
			if strings.HasPrefix(line, costed[rank].ID+" ") || strings.HasPrefix(line, costed[rank].ID+"\t") ||
				strings.Contains(line, costed[rank].ID+" ") {
				pos[rank] = i
				break
			}
		}
		if pos[rank] == -1 {
			t.Fatalf("streamed top-3 missing rank-%d point %q:\n%s", rank, costed[rank].ID, got)
		}
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("top-3 rows out of rank order (%v):\n%s", pos, got)
	}
	// A worse point must not appear in the table section.
	worst := costed[len(costed)-1]
	if worst.ID != costed[0].ID && worst.ID != costed[1].ID && worst.ID != costed[2].ID {
		if strings.Contains(got, worst.ID) && !strings.Contains(got, "cheapest "+worst.ID) {
			t.Errorf("streamed top-3 leaked non-top point %q:\n%s", worst.ID, got)
		}
	}
}

func TestRunScenarioPareto(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-pareto"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Pareto front", "result(s) streamed", "cheapest", "non-cost"} {
		if !strings.Contains(s, want) {
			t.Errorf("pareto output missing %q:\n%s", want, s)
		}
	}
}

func TestRunScenarioSweepBest(t *testing.T) {
	// The v2 schema's multi-axis sweep (nodes × schemes × area_range ×
	// count_range) compiles to one sweep-best request answered in
	// O(top_k) memory.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "testdata/streaming-scenario.json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"streaming-roadmap", "explore/sweep-best", "best explore-",
		"evaluated", "pruned", "0 failed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep-best output missing %q:\n%s", want, s)
		}
	}
}

func TestRunScenarioSearchBest(t *testing.T) {
	// A sweep with a "search" block answers search-best adaptively and
	// renders the evaluated-ratio savings in the one-line answer.
	dir := t.TempDir()
	path := filepath.Join(dir, "search.json")
	cfg := `{"version": 2, "name": "vsearch", "questions": ["search-best"],
	  "sweeps": [{"name": "g", "nodes": ["5nm", "7nm"], "scheme": "MCM",
	    "d2d_fraction": 0.10, "quantity": 1000000, "top_k": 3,
	    "area_range": {"lo_mm2": 100, "hi_mm2": 600, "step_mm2": 25},
	    "count_range": {"lo": 1, "hi": 6},
	    "search": {"bound": true, "tolerance": 0.05,
	      "halving": {"slabs": 4, "sample": 32},
	      "refine": {"factor": 4, "knees": 1}}}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"g/search-best", "best g-", "evaluated", "stage(s)", "0 failed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("search-best output missing %q:\n%s", want, s)
		}
	}
}

func TestRunTopNoDoubleCountWithSweepBest(t *testing.T) {
	// A scenario selecting both total-cost and sweep-best must not
	// feed the aggregators each design point twice: the -top table
	// lists distinct points only.
	dir := t.TempDir()
	path := filepath.Join(dir, "both.json")
	cfg := `{"version": 2, "name": "both",
	  "questions": ["total-cost", "sweep-best"],
	  "sweeps": [{"name": "sw", "node": "5nm", "scheme": "MCM", "d2d_fraction": 0.10,
	    "quantity": 1000000, "areas_mm2": [400, 800], "counts": [1, 2]}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", path, "-top", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	// Count table rows only (the footer repeats the cheapest ID).
	s := out.String()
	start := strings.Index(s, "Top 4")
	if start < 0 {
		t.Fatalf("output lost the top table:\n%s", s)
	}
	table := s[start:]
	if end := strings.Index(table, "\n\n"); end >= 0 {
		table = table[:end]
	}
	for _, id := range []string{"sw-a400-k1", "sw-a400-k2", "sw-a800-k1", "sw-a800-k2"} {
		if got := strings.Count(table, id+"/total-cost"); got != 1 {
			t.Errorf("point %s listed %d times in the top table, want 1:\n%s", id, got, s)
		}
	}
}

func TestRunTopParetoFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-top", "3"}, &out); err == nil {
		t.Error("-top accepted without -scenario")
	}
	if err := run(context.Background(), []string{"-portfolio", "testdata/scms-family.json", "-pareto"}, &out); err == nil {
		t.Error("-pareto accepted without -scenario")
	}
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-top", "-2"}, &out); err == nil {
		t.Error("negative -top accepted")
	}
}

func TestRunScenarioPolicyOverride(t *testing.T) {
	// Per-instance and per-system-unit coincide for the one-member
	// portfolios a scenario evaluates, so just check the override is
	// accepted and a bad one still rejected.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-policy", "per-instance"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-scenario", "testdata/roadmap-scenario.json", "-policy", "nonsense"}, &out); err == nil {
		t.Error("unknown policy accepted with -scenario")
	}
}

func TestRunDesignsInventory(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-designs"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"NRE design inventory", "chip/ccd", "chip/iod", "d2d/7nm", "pkg/"} {
		if !strings.Contains(s, want) {
			t.Errorf("designs output missing %q", want)
		}
	}
}

func TestRunPerInstancePolicy(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-policy", "per-instance"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-policy", "nonsense"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunCustomTechFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tech.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := actuary.DefaultTech().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-tech", path}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-config", "testdata/epyc.json", "-tech", "/missing.json"}, &out); err == nil {
		t.Error("missing tech file accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -config accepted")
	}
	if err := run(context.Background(), []string{"-config", "/missing.json"}, &out); err == nil {
		t.Error("missing config accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestRunWarnsOverReticle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.json")
	cfg := `{"name":"big","scheme":"SoC","quantity":1000,
	  "chiplets":[{"name":"die","node":"5nm","module_area_mm2":900,"count":1}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warning") || !strings.Contains(out.String(), "reticle") {
		t.Errorf("expected reticle warning:\n%s", out.String())
	}
}
