package actuary

// One benchmark per paper artifact: each bench regenerates the full
// figure (workload, sweep, baselines) per iteration, so `go test
// -bench=.` both measures the model's throughput and proves every
// experiment still runs end to end. The correctness of the regenerated
// numbers is asserted by the shape tests in internal/experiments.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/experiments"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/wafer"
)

func benchSetup(b *testing.B) (*tech.Database, packaging.Params, *cost.Engine, *explore.Evaluator) {
	b.Helper()
	db := tech.Default()
	params := packaging.DefaultParams()
	eng, err := cost.NewEngine(db, params)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := explore.NewEvaluator(db, params)
	if err != nil {
		b.Fatal(err)
	}
	return db, params, eng, ev
}

// BenchmarkFig2YieldCostArea regenerates Figure 2: the yield-area and
// normalized cost-area curves of the six technologies.
func BenchmarkFig2YieldCostArea(b *testing.B) {
	db, _, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4REGrid regenerates Figure 4: the 3×3 grid of normalized
// RE cost bars (3 nodes × 3 chiplet counts × 9 areas × 4 schemes).
func BenchmarkFig4REGrid(b *testing.B) {
	_, _, eng, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(eng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5AMDValidation regenerates Figure 5: the AMD EPYC-like
// chiplet-vs-monolithic validation at five core counts.
func BenchmarkFig5AMDValidation(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6TotalCost regenerates Figure 6: RE + amortized NRE for
// the 800 mm² system at 2 nodes × 3 quantities × 4 schemes.
func BenchmarkFig6TotalCost(b *testing.B) {
	_, _, _, ev := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SCMS regenerates Figure 8: the SCMS reuse families on
// MCM and 2.5D, with and without package reuse, plus SoC baselines.
func BenchmarkFig8SCMS(b *testing.B) {
	_, _, _, ev := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9OCME regenerates Figure 9: the OCME families including
// the heterogeneous-center variant.
func BenchmarkFig9OCME(b *testing.B) {
	_, _, _, ev := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10FSMC regenerates Figure 10: all five (k, n) FSMC
// configurations — 331 multi-chip systems plus 331 SoC baselines per
// scheme pair at the largest point.
func BenchmarkFig10FSMC(b *testing.B) {
	_, _, _, ev := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaims evaluates every §4–§6 in-text claim.
func BenchmarkClaims(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Claims(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAssemblyFlow compares chip-last vs chip-first
// (Eq. 5) across schemes and chiplet counts.
func BenchmarkAblationAssemblyFlow(b *testing.B) {
	_, _, eng, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FlowAblation(eng, "7nm", 600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAmortization compares the per-system-unit and
// per-instance NRE amortization policies on the SCMS family.
func BenchmarkAblationAmortization(b *testing.B) {
	_, _, _, ev := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AmortizationAblation(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationD2DOverhead sweeps the D2D area fraction.
func BenchmarkAblationD2DOverhead(b *testing.B) {
	_, _, eng, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.D2DAblation(eng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBondYield sweeps the micro-bump bond yield on 2.5D.
func BenchmarkAblationBondYield(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BondYieldAblation(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionMaturity regenerates the yield-maturity timeline.
func BenchmarkExtensionMaturity(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MaturityTimeline(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionInterposerStudy regenerates the passive/active
// interposer comparison.
func BenchmarkExtensionInterposerStudy(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ActiveInterposerStudy(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSalvage regenerates the core-harvesting sweep.
func BenchmarkAblationSalvage(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SalvageAblation(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness runs the Monte Carlo conclusion-stability study
// (40 scenarios per conclusion to keep the bench tractable).
func BenchmarkRobustness(b *testing.B) {
	db, params, _, _ := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(db, params, 40, 0.15); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionBenchRequests builds a 120-request total-cost sweep: a
// 6-area × 4-count grid repeated five times, the shape of a design
// space exploration where the same die geometries recur constantly.
func sessionBenchRequests(b *testing.B) []Request {
	b.Helper()
	var reqs []Request
	for rep := 0; rep < 5; rep++ {
		for _, area := range []float64{300, 400, 500, 600, 700, 800} {
			for k := 1; k <= 4; k++ {
				scheme := packaging.MCM
				if k == 1 {
					scheme = packaging.SoC
				}
				s, err := system.PartitionEqual(fmt.Sprintf("p-a%.0f-k%d", area, k),
					"5nm", area, k, scheme, D2DFraction(0.10), 1_000_000)
				if err != nil {
					b.Fatal(err)
				}
				reqs = append(reqs, Request{Question: QuestionTotalCost, System: s})
			}
		}
	}
	return reqs
}

// BenchmarkSessionEvaluateBatch measures the batch pipeline on a
// 120-request sweep. "cached" and "uncached" both run the default
// Session (worker pool, no memoization — the arm names predate the
// removal of the die-cost cache and are kept so recorded baselines
// still match), and "single-shot-uncached" is the pre-Session
// baseline: one request at a time, one worker.
func BenchmarkSessionEvaluateBatch(b *testing.B) {
	reqs := sessionBenchRequests(b)
	ctx := context.Background()
	runBatch := func(b *testing.B, s *Session) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range s.Evaluate(ctx, reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}
	b.Run("cached", func(b *testing.B) {
		s, err := NewSession()
		if err != nil {
			b.Fatal(err)
		}
		runBatch(b, s)
	})
	b.Run("uncached", func(b *testing.B) {
		s, err := NewSession()
		if err != nil {
			b.Fatal(err)
		}
		runBatch(b, s)
	})
	b.Run("single-shot-uncached", func(b *testing.B) {
		s, err := NewSession(WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				r := s.Evaluate(ctx, []Request{req})[0]
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	// Under the high-fidelity grid-packed wafer estimator each die
	// evaluation walks the full stepper grid.
	gridParams := packaging.DefaultParams()
	gridParams.Estimator = wafer.GridPacked
	b.Run("grid-packed-cached", func(b *testing.B) {
		s, err := NewSession(WithPackaging(gridParams))
		if err != nil {
			b.Fatal(err)
		}
		runBatch(b, s)
	})
	b.Run("grid-packed-uncached", func(b *testing.B) {
		s, err := NewSession(WithPackaging(gridParams))
		if err != nil {
			b.Fatal(err)
		}
		runBatch(b, s)
	})
}

// streamBenchGrid builds an area × 8-count design space; stepMM2 10
// gives 568 points, 1.25 gives 4488 (the "8x" size).
func streamBenchGrid(b *testing.B, stepMM2 float64) SweepGrid {
	b.Helper()
	areas, err := SweepAreaRange(100, 800, stepMM2)
	if err != nil {
		b.Fatal(err)
	}
	counts, err := SweepCountRange(1, 8)
	if err != nil {
		b.Fatal(err)
	}
	return SweepGrid{
		Name:       "bench",
		Nodes:      []string{"5nm"},
		Schemes:    []packaging.Scheme{packaging.MCM},
		AreasMM2:   areas,
		Counts:     counts,
		Quantities: []float64{1_000_000},
		D2D:        D2DFraction(0.10),
	}
}

// BenchmarkSessionStreamSweep compares the two faces of the sweep
// pipeline at two grid sizes (568 and 4488 points): "streamed" pulls
// lazily from the generator through Session.Stream into an online
// top-K, "materialized" builds the full request and result slices the
// way the pre-streaming API had to. Per-point evaluation dominates
// allocs/op in both arms; the signal is in the *difference* — the
// materialized arm's extra B/op over streamed grows with grid size
// (the slices), the streamed arm's pipeline overhead does not. The
// retained-memory boundedness claim is additionally pinned by
// TestStreamLazyGeneration (the source is never pulled more than the
// in-flight window ahead of the consumer).
func BenchmarkSessionStreamSweep(b *testing.B) {
	ctx := context.Background()
	// reportThroughput turns the wall clock into the headline number:
	// points/sec computed from b.Elapsed (not ns/op arithmetic after
	// the fact) — the signal BENCH_*.json and the CI bench-smoke gate
	// track.
	reportThroughput := func(b *testing.B, points int) {
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(points*b.N)/sec, "points/sec")
		}
	}
	sizes := []struct {
		name   string
		step   float64
		points int
	}{
		{"568pt", 10, 568},
		{"4488pt", 1.25, 4488},
	}
	for _, size := range sizes {
		b.Run("streamed-"+size.name, func(b *testing.B) {
			s, err := NewSession()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grid := streamBenchGrid(b, size.step)
				src, err := SweepSource(grid.Points(), QuestionTotalCost, PerSystemUnit)
				if err != nil {
					b.Fatal(err)
				}
				ch, err := s.Stream(ctx, src, StreamSpec{})
				if err != nil {
					b.Fatal(err)
				}
				top := NewCostTopK(5)
				var stats StreamStats
				Reduce(ch, top, &stats)
				if stats.Failed != 0 || len(top.Results()) != 5 {
					b.Fatalf("stream failed: %+v", stats)
				}
				if stats.OK != size.points {
					b.Fatalf("streamed %d points, want %d", stats.OK, size.points)
				}
			}
			b.StopTimer()
			reportThroughput(b, size.points)
		})
		b.Run("materialized-"+size.name, func(b *testing.B) {
			s, err := NewSession()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grid := streamBenchGrid(b, size.step)
				src, err := SweepSource(grid.Points(), QuestionTotalCost, PerSystemUnit)
				if err != nil {
					b.Fatal(err)
				}
				var reqs []Request
				for {
					r, ok := src.Next()
					if !ok {
						break
					}
					reqs = append(reqs, r)
				}
				results := s.Evaluate(ctx, reqs)
				top := NewCostTopK(5)
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					top.Observe(r)
				}
				if len(top.Results()) != 5 {
					b.Fatal("top-K lost results")
				}
			}
			b.StopTimer()
			reportThroughput(b, size.points)
		})
	}
	// One sweep-best request answers the whole grid inside the worker:
	// the one-request face of the same pipeline.
	b.Run("sweep-best-question", func(b *testing.B) {
		s, err := NewSession()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grid := streamBenchGrid(b, 10)
			r := s.Evaluate(ctx, []Request{{Question: QuestionSweepBest, Grid: &grid, TopK: 5}})[0]
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if len(r.SweepBest.Top) != 5 {
				b.Fatal("sweep-best lost results")
			}
		}
		b.StopTimer()
		reportThroughput(b, 568)
	})
}

// BenchmarkSingleSystemRE measures the core RE evaluation alone — the
// unit of work every figure is built from.
func BenchmarkSingleSystemRE(b *testing.B) {
	_, _, eng, _ := benchSetup(b)
	s, err := system.PartitionEqual("bench", "5nm", 800, 3, packaging.MCM,
		D2DFraction(0.10), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RE(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolioNRE measures the NRE engine on a shared-design
// portfolio (the SCMS family).
func BenchmarkPortfolioNRE(b *testing.B) {
	_, params, _, ev := benchSetup(b)
	family, err := SCMS(SCMSConfig{
		Node: "7nm", ModuleAreaMM2: 200, Counts: []int{1, 2, 4},
		Scheme: packaging.MCM, QuantityPerSystem: 500_000, Params: params,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.NRE.Portfolio(family, nre.PerSystemUnit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossoverQuantity measures the §4.2 pay-back solver.
func BenchmarkCrossoverQuantity(b *testing.B) {
	_, _, _, ev := benchSetup(b)
	soc := system.Monolithic("soc", "5nm", 800, 1)
	mcm, err := system.PartitionEqual("mcm", "5nm", 800, 2, packaging.MCM, D2DFraction(0.10), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.CrossoverQuantity(soc, mcm); err != nil {
			b.Fatal(err)
		}
	}
}

// searchBenchGrid builds the ≥100k-candidate design space the
// adaptive-search benchmark walks: a 0.05 mm² area step over
// 100–800 mm² crossed with counts 1–8 gives 14001 × 8 = 112008
// candidates — big enough that the evaluated-ratio metric means
// something, small enough that the exhaustive reference answer
// still runs in well under a second. The 100M quantity puts the
// grid in the volume-production regime where RE dominates the
// total, which is where the k·KGD lower bound is tight enough to
// carry the pruning-only arm.
func searchBenchGrid(b *testing.B) *SweepGrid {
	b.Helper()
	areas, err := SweepAreaRange(100, 800, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	counts, err := SweepCountRange(1, 8)
	if err != nil {
		b.Fatal(err)
	}
	return &SweepGrid{
		Name:       "searchbench",
		Nodes:      []string{"5nm"},
		Schemes:    []packaging.Scheme{packaging.MCM},
		AreasMM2:   areas,
		Counts:     counts,
		Quantities: []float64{100_000_000},
		D2D:        D2DFraction(0.10),
	}
}

// BenchmarkSearchBest measures the adaptive search against the
// exhaustive sweep on a 112008-candidate grid, and asserts the PR's
// acceptance ratios while it is at it: the pruning-only arm must
// return the exhaustive answer byte-for-byte while evaluating ≤25% of
// the grid, and the staged refine+halving arm must land within its
// declared tolerance of the true optimum while evaluating ≤10%. The
// headline metric is evaluated-ratio (evaluated / grid size); BENCH
// baselines track it alongside points/sec.
func BenchmarkSearchBest(b *testing.B) {
	ctx := context.Background()
	grid := searchBenchGrid(b)
	s, err := NewSession()
	if err != nil {
		b.Fatal(err)
	}
	exact := s.Evaluate(ctx, []Request{{Question: QuestionSweepBest, Grid: grid, TopK: 3}})[0]
	if exact.Err != nil {
		b.Fatal(exact.Err)
	}
	wantTop, err := json.Marshal(exact.SweepBest.Top)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, st SearchStats) {
		b.ReportMetric(st.EvaluatedRatio(), "evaluated-ratio")
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(st.Evaluated*b.N)/sec, "points/sec")
		}
	}
	b.Run("pruning-only", func(b *testing.B) {
		var st SearchStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := s.Evaluate(ctx, []Request{{Question: QuestionSearchBest, Grid: grid, TopK: 3}})[0]
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			got, err := json.Marshal(r.SearchBest.Top)
			if err != nil {
				b.Fatal(err)
			}
			if string(got) != string(wantTop) {
				b.Fatalf("pruning-only answer diverged from exhaustive:\n got %s\nwant %s", got, wantTop)
			}
			st = r.SearchBest.Stats
		}
		b.StopTimer()
		if ratio := st.EvaluatedRatio(); ratio > 0.25 {
			b.Fatalf("pruning-only evaluated %.1f%% of the grid, want ≤25%%", 100*ratio)
		}
		report(b, st)
	})
	b.Run("refine-halving", func(b *testing.B) {
		const tolerance = 0.05
		spec := &SearchSpec{
			Bound:     true,
			Tolerance: tolerance,
			Halving:   &SearchHalvingSpec{Slabs: 8, Sample: 64},
			Refine:    &SearchRefineSpec{Factor: 8, Knees: 2},
		}
		exactBest := exact.SweepBest.Top[0].Total.Total()
		var st SearchStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := s.Evaluate(ctx, []Request{{Question: QuestionSearchBest, Grid: grid, TopK: 3, Search: spec}})[0]
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if best := r.SearchBest.Top[0].Total.Total(); best > exactBest*(1+tolerance) {
				b.Fatalf("staged search best %.4f misses exhaustive %.4f by more than %.0f%%",
					best, exactBest, 100*tolerance)
			}
			st = r.SearchBest.Stats
		}
		b.StopTimer()
		if ratio := st.EvaluatedRatio(); ratio > 0.10 {
			b.Fatalf("staged search evaluated %.1f%% of the grid, want ≤10%%", 100*ratio)
		}
		report(b, st)
	})
}
