package explore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/units"
)

func evaluator(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(tech.Default(), packaging.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, packaging.DefaultParams()); err == nil {
		t.Error("nil db accepted")
	}
	bad := packaging.DefaultParams()
	bad.InterposerFill = 0
	if _, err := NewEvaluator(tech.Default(), bad); err == nil {
		t.Error("bad params accepted")
	}
}

func TestSingleTotalCost(t *testing.T) {
	e := evaluator(t)
	s := system.Monolithic("soc", "5nm", 800, 500_000)
	tc, err := e.Single(s, nre.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	if tc.RE.Total() <= 0 || tc.NRE.Total() <= 0 {
		t.Fatalf("degenerate totals: %+v", tc)
	}
	if !units.ApproxEqual(tc.Total(), tc.RE.Total()+tc.NRE.Total(), 1e-12) {
		t.Error("Total must be RE + NRE")
	}
	share := tc.NREShare()
	if share <= 0 || share >= 1 {
		t.Errorf("NRE share = %v, want in (0,1)", share)
	}
	if (TotalCost{}).NREShare() != 0 {
		t.Error("zero-cost NREShare should be 0")
	}
}

func TestCrossoverQuantityMatchesPaperStory(t *testing.T) {
	// §4.2: a 5nm 800 mm² system as SoC vs 2-chiplet MCM. The paper
	// reports SoC cheaper at 500k and MCM paying back by 2M units, so
	// the crossover must fall strictly between.
	e := evaluator(t)
	soc := system.Monolithic("soc", "5nm", 800, 1)
	mcm, err := system.PartitionEqual("mcm", "5nm", 800, 2, packaging.MCM, dtod.Fraction{F: 0.10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.CrossoverQuantity(soc, mcm)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 500_000 || q > 2_000_000 {
		t.Errorf("5nm crossover = %.0f units; paper places it in (500k, 2M]", q)
	}
	// Verify the crossover is genuine: evaluate on both sides.
	at := func(quantity float64) (socTotal, mcmTotal float64) {
		s1, s2 := soc, mcm
		s1.Quantity, s2.Quantity = quantity, quantity
		t1, err := e.Single(s1, nre.PerSystemUnit)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := e.Single(s2, nre.PerSystemUnit)
		if err != nil {
			t.Fatal(err)
		}
		return t1.Total(), t2.Total()
	}
	sLo, mLo := at(q * 0.8)
	if mLo <= sLo {
		t.Errorf("below crossover MCM (%v) should exceed SoC (%v)", mLo, sLo)
	}
	sHi, mHi := at(q * 1.2)
	if mHi >= sHi {
		t.Errorf("above crossover MCM (%v) should undercut SoC (%v)", mHi, sHi)
	}
}

func TestCrossoverQuantity14nmComesLater(t *testing.T) {
	// Mature nodes benefit less from yield recovery, so the pay-back
	// quantity must be far higher than at 5nm.
	e := evaluator(t)
	mk := func(node string) (system.System, system.System) {
		soc := system.Monolithic("soc-"+node, node, 800, 1)
		mcm, err := system.PartitionEqual("mcm-"+node, node, 800, 2, packaging.MCM, dtod.Fraction{F: 0.10}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return soc, mcm
	}
	soc5, mcm5 := mk("5nm")
	q5, err := e.CrossoverQuantity(soc5, mcm5)
	if err != nil {
		t.Fatal(err)
	}
	soc14, mcm14 := mk("14nm")
	q14, err := e.CrossoverQuantity(soc14, mcm14)
	if err != nil {
		t.Fatal(err)
	}
	if q14 <= q5 {
		t.Errorf("14nm crossover (%.0f) should exceed 5nm crossover (%.0f)", q14, q5)
	}
}

func TestCrossoverQuantityErrors(t *testing.T) {
	e := evaluator(t)
	// A challenger with both higher RE and higher NRE never pays
	// back: 2-chiplet 2.5D of a small, cheap 14nm die.
	soc := system.Monolithic("soc", "14nm", 100, 1)
	multi, err := system.PartitionEqual("m", "14nm", 100, 2, packaging.TwoPointFiveD, dtod.Fraction{F: 0.10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CrossoverQuantity(soc, multi); err == nil {
		t.Error("never-pays-back case should error")
	}
	// Reversed: challenger cheaper on both axes pays back at once.
	q, err := e.CrossoverQuantity(multi, soc)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("dominant challenger crossover = %v, want 0", q)
	}
	// Invalid systems propagate errors.
	if _, err := e.CrossoverQuantity(system.System{Name: "x"}, soc); err == nil {
		t.Error("invalid incumbent accepted")
	}
}

func TestOptimalChipletCount(t *testing.T) {
	// §6 takeaway: "splitting a single system into two or three
	// chiplets is usually sufficient". For a big 5nm system at a
	// paper-scale volume (2M units) the optimum must be 2..4 — never
	// 1 (yield losses dominate) and never the maximum (fixed chip
	// NRE punishes extra tapeouts).
	e := evaluator(t)
	points, best, err := e.OptimalChipletCount("5nm", 800, 8, packaging.MCM, dtod.Fraction{F: 0.10}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("points = %d, want 8", len(points))
	}
	k := points[best].Chiplets
	if k < 2 || k > 4 {
		t.Errorf("optimal k = %d, expected 2..4 at 5nm/800mm²/2M units", k)
	}
	// k=1 must be the SoC scheme.
	if points[0].Chiplets != 1 || points[0].Scheme != packaging.SoC {
		t.Errorf("first point should be the monolithic SoC: %+v", points[0])
	}
	// At tiny volume the SoC must win instead (NRE dominates).
	_, bestLow, err := e.OptimalChipletCount("5nm", 800, 8, packaging.MCM, dtod.Fraction{F: 0.10}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	pointsLow, _, _ := e.OptimalChipletCount("5nm", 800, 8, packaging.MCM, dtod.Fraction{F: 0.10}, 100_000)
	if pointsLow[bestLow].Chiplets != 1 {
		t.Errorf("at 100k units the SoC should win, got k=%d", pointsLow[bestLow].Chiplets)
	}
}

func TestOptimalChipletCountErrors(t *testing.T) {
	e := evaluator(t)
	if _, _, err := e.OptimalChipletCount("5nm", 800, 0, packaging.MCM, dtod.None{}, 1); err == nil {
		t.Error("maxK=0 accepted")
	}
	// A 1200 mm² module area cannot be built monolithically (beyond
	// the reticle) but splits fine from k=2 on; k=1 must be skipped.
	points, _, err := e.OptimalChipletCount("5nm", 1200, 4, packaging.MCM, dtod.Fraction{F: 0.10}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Chiplets < 2 {
			t.Errorf("infeasible k=%d should have been skipped", p.Chiplets)
		}
	}
	if len(points) == 0 {
		t.Error("expected feasible multi-chip points")
	}
	if _, _, err := e.OptimalChipletCount("5nm", -100, 3, packaging.MCM, dtod.None{}, 1); err == nil {
		t.Error("negative area accepted")
	}
}

func TestMarginalUtilityDecays(t *testing.T) {
	// §4.1: "the cost benefits from smaller chiplet granularity have
	// a marginal utility" — the 1→2 saving must dwarf the 3→4 saving,
	// and 3→5-style savings must be small (<10%).
	e := evaluator(t)
	d2d := dtod.Fraction{F: 0.10}
	m1, err := e.MarginalUtility("5nm", 800, 1, packaging.MCM, d2d)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := e.MarginalUtility("5nm", 800, 3, packaging.MCM, d2d)
	if err != nil {
		t.Fatal(err)
	}
	if m1 <= m3 {
		t.Errorf("marginal utility must decay: 1→2 %v vs 3→4 %v", m1, m3)
	}
	if m1 < 0.05 {
		t.Errorf("first split at 5nm/800mm² should save >5%%, got %v", m1)
	}
	if m3 > 0.10 {
		t.Errorf("3→4 split should save <10%% (paper: <10%% for 3→5), got %v", m3)
	}
	if _, err := e.MarginalUtility("5nm", 800, 0, packaging.MCM, d2d); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAreaCrossover(t *testing.T) {
	// The turning point must exist for 5nm between 100 and 900 mm²,
	// and come earlier (smaller area) than at 14nm — "the turning
	// point for advanced technology comes earlier than the mature
	// technology" (§4.1).
	e := evaluator(t)
	d2d := dtod.Fraction{F: 0.10}
	a5, err := e.AreaCrossover("5nm", 2, packaging.MCM, d2d, 100, 900)
	if err != nil {
		t.Fatal(err)
	}
	a14, err := e.AreaCrossover("14nm", 2, packaging.MCM, d2d, 100, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !(a5 < a14) {
		t.Errorf("5nm turning point (%.0f) should come before 14nm (%.0f)", a5, a14)
	}
	// The crossover is genuine: RE(multi) < RE(SoC) above, > below.
	check := func(node string, area float64, multiWins bool) {
		soc := system.Monolithic("s", node, area, 1)
		reS, err := e.Cost.RE(soc)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := system.PartitionEqual("m", node, area, 2, packaging.MCM, d2d, 1)
		if err != nil {
			t.Fatal(err)
		}
		reM, err := e.Cost.RE(multi)
		if err != nil {
			t.Fatal(err)
		}
		if multiWins && reM.Total() >= reS.Total() {
			t.Errorf("%s at %.0f: multi should win", node, area)
		}
		if !multiWins && reM.Total() <= reS.Total() {
			t.Errorf("%s at %.0f: SoC should win", node, area)
		}
	}
	check("5nm", a5*1.1, true)
	check("5nm", a5*0.9, false)
}

func TestAreaCrossoverErrors(t *testing.T) {
	e := evaluator(t)
	// Argument mistakes are configuration errors, not infeasibility:
	// they must NOT carry the ErrInfeasible sentinel.
	configCases := []struct {
		name   string
		k      int
		lo, hi float64
	}{
		{"k=1", 1, 100, 900},
		{"k=0", 0, 100, 900},
		{"inverted bracket", 2, 900, 100},
		{"empty bracket", 2, 500, 500},
		{"non-positive lo", 2, 0, 900},
		{"negative lo", 2, -50, 900},
	}
	for _, tc := range configCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.AreaCrossover("5nm", tc.k, packaging.MCM, dtod.None{}, tc.lo, tc.hi)
			if err == nil {
				t.Fatal("invalid arguments accepted")
			}
			if errors.Is(err, ErrInfeasible) {
				t.Errorf("config mistake misclassified as infeasible: %v", err)
			}
		})
	}
	// 2.5D packaging of a tiny cheap 14nm system never beats SoC in
	// the bracket: a legitimate "no" answer, tagged ErrInfeasible.
	_, err := e.AreaCrossover("14nm", 2, packaging.TwoPointFiveD, dtod.Fraction{F: 0.10}, 50, 200)
	if err == nil {
		t.Fatal("expected no-crossover error")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("no-crossover error %v does not wrap ErrInfeasible", err)
	}
	// An unknown node surfaces the evaluation error, not infeasibility.
	if _, err := e.AreaCrossover("1nm-imaginary", 2, packaging.MCM, dtod.None{}, 100, 900); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("unknown node: got %v", err)
	}
}

// TestOptimalChipletCountStreamedSemantics pins the behaviour the
// generator+aggregator rebase must preserve: k ordering, reticle
// pruning, SoC-scheme degradation and the infeasible-sweep error.
func TestOptimalChipletCountStreamedSemantics(t *testing.T) {
	e := evaluator(t)
	d2d := dtod.Fraction{F: 0.10}
	points, best, err := e.OptimalChipletCount("5nm", 900, 5, packaging.MCM, d2d, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The 900 mm² monolithic die exceeds the reticle: k=1 pruned, the
	// remaining points ascend in k.
	for i, p := range points {
		if p.Chiplets == 1 {
			t.Error("over-reticle monolithic point survived")
		}
		if i > 0 && points[i].Chiplets <= points[i-1].Chiplets {
			t.Error("points not ascending in k")
		}
	}
	if best < 0 || best >= len(points) {
		t.Fatalf("best index %d out of range", best)
	}
	for _, p := range points {
		if p.Total.Total() < points[best].Total.Total() {
			t.Errorf("best %d is not cheapest: k=%d is cheaper", best, p.Chiplets)
		}
	}
	// An SoC scheme degrades to the k=1 point alone (multi-chip counts
	// are unbuildable on an SoC and silently pruned).
	socPoints, socBest, err := e.OptimalChipletCount("5nm", 400, 4, packaging.SoC, dtod.None{}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(socPoints) != 1 || socPoints[0].Chiplets != 1 || socBest != 0 {
		t.Errorf("SoC sweep: %+v best %d, want only k=1", socPoints, socBest)
	}
	// maxK < 1 is a config error without the infeasible tag...
	if _, _, err := e.OptimalChipletCount("5nm", 400, 0, packaging.MCM, d2d, 1); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("maxK=0: got %v", err)
	}
	// ...while a sweep with no manufacturable point is ErrInfeasible.
	_, _, err = e.OptimalChipletCount("5nm", 5000, 2, packaging.MCM, d2d, 1)
	if err == nil || !errors.Is(err, ErrInfeasible) {
		t.Errorf("unmanufacturable sweep: got %v", err)
	}
}

func TestPackagingSensitivity(t *testing.T) {
	db := tech.Default()
	params := packaging.DefaultParams()
	s, err := system.PartitionEqual("s", "7nm", 600, 3, packaging.TwoPointFiveD, dtod.Fraction{F: 0.10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := PackagingSensitivity(db, params, s, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("too few sensitivity knobs: %d", len(points))
	}
	// Sorted descending by swing.
	for i := 1; i < len(points); i++ {
		if points[i].Swing() > points[i-1].Swing() {
			t.Errorf("points not sorted by swing at %d", i)
		}
	}
	// Bond yields must matter for 2.5D: the micro-bump knob should
	// produce a non-trivial swing.
	found := false
	for _, p := range points {
		if p.Parameter == "micro-bump bond yield" && p.Swing() > 0 {
			found = true
			// Lower yield must cost more.
			if p.Low <= p.High {
				t.Errorf("lower bond yield should raise cost: low=%v high=%v", p.Low, p.High)
			}
		}
	}
	if !found {
		t.Error("micro-bump sensitivity missing or zero")
	}
	if _, err := PackagingSensitivity(db, params, s, 0); err == nil {
		t.Error("rel=0 accepted")
	}
	if _, err := PackagingSensitivity(db, params, s, 1.5); err == nil {
		t.Error("rel=1.5 accepted")
	}
	if _, err := PackagingSensitivity(db, params, system.System{Name: "x"}, 0.2); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestSensitivitySwing(t *testing.T) {
	p := SensitivityPoint{Low: 10, High: 14}
	if got := p.Swing(); math.Abs(got-4) > 1e-12 {
		t.Errorf("swing = %v, want 4", got)
	}
}

// TestSingleUniformMatchesPortfolio diffs Single's uniform fast path
// (one shape detection shared by both engines) against a one-member
// Portfolio (general NRE walk, RE detecting its own shape): identical
// breakdowns bit for bit on every scheme and width, and identical
// error text where either path fails.
func TestSingleUniformMatchesPortfolio(t *testing.T) {
	e := evaluator(t)
	var systems []system.System
	for _, area := range []float64{50, 400, 800} {
		systems = append(systems, system.Monolithic("soc", "7nm", area, 1e5))
		for _, scheme := range []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD} {
			for _, k := range []int{2, 3, 12} {
				s, err := system.PartitionEqual("p", "5nm", area, k, scheme, dtod.Fraction{F: 0.1}, 2e6)
				if err != nil {
					t.Fatal(err)
				}
				systems = append(systems, s)
			}
		}
	}
	unknown := system.Monolithic("bad", "1nm", 100, 1e5)
	negative := system.Monolithic("neg", "7nm", 100, -1)
	zero := system.Monolithic("zero", "7nm", 100, 0)
	systems = append(systems, unknown, negative, zero)
	for _, s := range systems {
		if _, ok := system.AsUniform(s); !ok {
			t.Fatalf("%q: not uniform", s.Name)
		}
		for _, policy := range []nre.Policy{nre.PerSystemUnit, nre.PerInstance} {
			got, gotErr := e.Single(s, policy)
			m, wantErr := e.Portfolio([]system.System{s}, policy)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: Single err %v, Portfolio err %v", s.Name, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("%q: Single err %q, Portfolio err %q", s.Name, gotErr, wantErr)
				}
				continue
			}
			if want := m[s.Name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%q policy %v: Single %+v, Portfolio %+v", s.Name, policy, got, want)
			}
		}
	}
}

// TestSingleUniformAllocs pins Single on a uniform point to one
// allocation: the per-die detail slice of the RE breakdown.
func TestSingleUniformAllocs(t *testing.T) {
	e := evaluator(t)
	s, err := system.PartitionEqual("p", "5nm", 800, 4, packaging.MCM, dtod.Fraction{F: 0.1}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Single(s, nre.PerSystemUnit); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Single(s, nre.PerSystemUnit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%.2f allocs per Single, want ≤ 1", allocs)
	}
}

// TestUniformSingleErrorOrder pins the fused uniform path of Single on
// deterministic cases whose outcome depends on which engine checks
// first: chip-first assembly, the PerInstance policy, a negative
// quantity, a zero quantity on an oversized 2.5D interposer, and an
// oversized die on an oversized interposer. A second evaluator with
// unbounded package limits lets an MCM die's wafer-fit error through,
// and a zero volume must still be reported before it. Every answer,
// error text included, must equal both the one-member Portfolio and
// the standalone engines run in Portfolio's order (NRE, then RE).
func TestUniformSingleErrorOrder(t *testing.T) {
	roomy := packaging.DefaultParams()
	roomy.MaxSubstrateMM2, roomy.MaxInterposerMM2 = 1e9, 1e9
	roomyEval, err := NewEvaluator(tech.Default(), roomy)
	if err != nil {
		t.Fatal(err)
	}
	d2d := dtod.Fraction{F: 0.1}
	for _, tc := range []struct {
		name    string
		e       *Evaluator
		area    float64
		k       int
		scheme  packaging.Scheme
		flow    packaging.Flow
		qty     float64
		wantErr string // substring; "" means success
	}{
		{"chip-first 2.5D", evaluator(t), 600, 3, packaging.TwoPointFiveD, packaging.ChipFirst, 1e6, ""},
		{"chip-first InFO", evaluator(t), 400, 4, packaging.InFO, packaging.ChipFirst, 5e5, ""},
		{"chip-last MCM", evaluator(t), 800, 4, packaging.MCM, packaging.ChipLast, 5e5, ""},
		{"negative quantity", evaluator(t), 800, 2, packaging.MCM, packaging.ChipLast, -1, "negative quantity"},
		{"zero quantity, oversized interposer", evaluator(t), 3000, 2, packaging.TwoPointFiveD, packaging.ChipLast, 0,
			"interposer 3667 mm² exceeds maximum"},
		{"oversized die and interposer", evaluator(t), 200000, 2, packaging.TwoPointFiveD, packaging.ChipLast, 1e5,
			"interposer 244444 mm² exceeds maximum"},
		{"oversized die, roomy substrate", roomyEval, 200000, 2, packaging.MCM, packaging.ChipLast, 1e5,
			"does not fit a wafer"},
		{"zero quantity, oversized die, roomy substrate", roomyEval, 200000, 2, packaging.MCM, packaging.ChipLast, 0,
			"no production volume"},
	} {
		s, err := system.PartitionEqual("o", "7nm", tc.area, tc.k, tc.scheme, d2d, tc.qty)
		if err != nil {
			t.Fatal(err)
		}
		s.Flow = tc.flow
		u, ok := system.AsUniform(s)
		if !ok {
			t.Fatalf("%s: not uniform", tc.name)
		}
		for _, policy := range []nre.Policy{nre.PerSystemUnit, nre.PerInstance} {
			what := fmt.Sprintf("%s, %v", tc.name, policy)
			got, gotErr := tc.e.Single(s, policy)
			m, portErr := tc.e.Portfolio([]system.System{s}, policy)
			var alone TotalCost
			var aloneErr error
			if alone.NRE, aloneErr = tc.e.NRE.EvaluateUniform(s, u, policy); aloneErr == nil {
				alone.RE, aloneErr = tc.e.Cost.REUniform(s, u)
			}
			if tc.wantErr == "" {
				if gotErr != nil || portErr != nil || aloneErr != nil {
					t.Fatalf("%s: errors: Single %v, Portfolio %v, standalone %v", what, gotErr, portErr, aloneErr)
				}
				if !reflect.DeepEqual(got, m[s.Name]) || !reflect.DeepEqual(got, alone) {
					t.Fatalf("%s: Single %+v, Portfolio %+v, standalone %+v", what, got, m[s.Name], alone)
				}
				continue
			}
			if gotErr == nil || !strings.Contains(gotErr.Error(), tc.wantErr) {
				t.Fatalf("%s: Single err %v, want one containing %q", what, gotErr, tc.wantErr)
			}
			if portErr == nil || aloneErr == nil || gotErr.Error() != portErr.Error() || gotErr.Error() != aloneErr.Error() {
				t.Fatalf("%s: Single err %q, Portfolio err %v, standalone err %v", what, gotErr, portErr, aloneErr)
			}
		}
	}
}

// TestRandomUniformSingleMatchesPortfolio walks 400 random uniform
// points (179 of them failing: unknown node, no volume, infeasible
// geometry) on 4 goroutines sharing one evaluator. Every uniform
// Single answer must equal the one-member Portfolio bit for bit, error
// text included.
func TestRandomUniformSingleMatchesPortfolio(t *testing.T) {
	e := evaluator(t)
	rng := rand.New(rand.NewSource(16))
	nodes := []string{"5nm", "7nm", "14nm", "1nm"} // 1nm is unknown
	schemes := []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
	type want struct {
		tc  TotalCost
		err string
	}
	var systems []system.System
	var wants []want
	failing := 0
	for len(systems) < 400 {
		k := 1 + rng.Intn(6)
		scheme := schemes[rng.Intn(len(schemes))]
		if k > 1 && scheme == packaging.SoC {
			scheme = packaging.MCM
		}
		area := float64(20 + rng.Intn(200)*5)
		qty := []float64{0, 1e4, 5e5, 2e6}[rng.Intn(4)]
		s, err := system.PartitionEqual("r", nodes[rng.Intn(len(nodes))], area, k, scheme, dtod.Fraction{F: 0.1}, qty)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Portfolio([]system.System{s}, nre.PerSystemUnit)
		w := want{tc: m[s.Name]}
		if err != nil {
			w.err = err.Error()
			failing++
		}
		systems = append(systems, s)
		wants = append(wants, w)
	}
	if failing != 179 {
		t.Fatalf("%d failing points, want 179", failing)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts a quarter of the way further in.
			for j := range systems {
				i := (j + g*len(systems)/4) % len(systems)
				got, err := e.Single(systems[i], nre.PerSystemUnit)
				w := wants[i]
				if err != nil || w.err != "" {
					if err == nil || err.Error() != w.err {
						t.Errorf("system %d: Single err %v, Portfolio err %q", i, err, w.err)
					}
					continue
				}
				if !reflect.DeepEqual(got, w.tc) {
					t.Errorf("system %d: Single %+v, Portfolio %+v", i, got, w.tc)
				}
			}
		}(g)
	}
	wg.Wait()
}
