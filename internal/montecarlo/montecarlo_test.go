package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/units"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestUniformBounds(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 5}
	r := rng()
	for i := 0; i < 1000; i++ {
		v := u.Sample(r)
		if v < 2 || v > 5 {
			t.Fatalf("sample %v outside [2,5]", v)
		}
	}
}

func TestTriangularBoundsAndMode(t *testing.T) {
	tri := Triangular{Lo: 0, Mode: 1, Hi: 4}
	r := rng()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := tri.Sample(r)
		if v < 0 || v > 4 {
			t.Fatalf("sample %v outside [0,4]", v)
		}
		sum += v
	}
	// Mean of a triangular is (lo+mode+hi)/3 = 5/3.
	if mean := sum / n; math.Abs(mean-5.0/3) > 0.05 {
		t.Errorf("mean = %v, want ≈1.667", mean)
	}
}

func TestNormalPositive(t *testing.T) {
	n := Normal{Mean: 0.5, Std: 2} // heavy truncation
	r := rng()
	for i := 0; i < 2000; i++ {
		if v := n.Sample(r); v <= 0 {
			t.Fatalf("non-positive sample %v", v)
		}
	}
}

func TestPoint(t *testing.T) {
	if v := (Point{V: 3.5}).Sample(rng()); v != 3.5 {
		t.Errorf("point sample = %v", v)
	}
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{Uniform{0, 1}, Triangular{0, 1, 2}, Normal{1, 0.1}, Point{2}} {
		if d.String() == "" {
			t.Errorf("%T: empty String", d)
		}
	}
}

func TestSampleScenarioPerturbsAsConfigured(t *testing.T) {
	base := tech.Default()
	params := packaging.DefaultParams()
	space := Space{
		DefectDensityFactor: Point{V: 2},
		WaferCostFactor:     Point{V: 3},
		SubstrateCostFactor: Point{V: 0.5},
		DesignCostFactor:    Point{V: 1.5},
		MicroBumpYieldDelta: Point{V: -0.05},
	}
	scen, err := space.Sample(rng(), base, params)
	if err != nil {
		t.Fatal(err)
	}
	orig := base.MustNode("5nm")
	got := scen.DB.MustNode("5nm")
	if !units.ApproxEqual(got.DefectDensity, 2*orig.DefectDensity, 1e-12) {
		t.Errorf("defect density factor not applied: %v", got.DefectDensity)
	}
	if !units.ApproxEqual(got.WaferCost, 3*orig.WaferCost, 1e-12) {
		t.Errorf("wafer cost factor not applied: %v", got.WaferCost)
	}
	if !units.ApproxEqual(got.Kc, 1.5*orig.Kc, 1e-12) {
		t.Errorf("design factor not applied: %v", got.Kc)
	}
	if !units.ApproxEqual(scen.Params.SubstrateCostPerLayerMM2, 0.5*params.SubstrateCostPerLayerMM2, 1e-12) {
		t.Errorf("substrate factor not applied")
	}
	if !units.ApproxEqual(scen.Params.MicroBumpBondYield, params.MicroBumpBondYield-0.05, 1e-12) {
		t.Errorf("bump yield delta not applied: %v", scen.Params.MicroBumpBondYield)
	}
	// Interposer nodes keep the base density unless the interposer
	// factor is set.
	if got := scen.DB.MustNode("SI").DefectDensity; got != base.MustNode("SI").DefectDensity {
		t.Errorf("interposer density should be untouched, got %v", got)
	}
}

func TestSampleClampsBondYield(t *testing.T) {
	space := Space{MicroBumpYieldDelta: Point{V: +0.5}}
	scen, err := space.Sample(rng(), tech.Default(), packaging.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if scen.Params.MicroBumpBondYield > 1 {
		t.Errorf("bond yield %v not clamped", scen.Params.MicroBumpBondYield)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	base := tech.Default()
	params := packaging.DefaultParams()
	metric := func(s Scenario) (float64, error) {
		eng, err := cost.NewEngine(s.DB, s.Params)
		if err != nil {
			return 0, err
		}
		b, err := eng.RE(system.Monolithic("m", "5nm", 400, 1))
		if err != nil {
			return 0, err
		}
		return b.Total(), nil
	}
	a, err := Run(50, 7, DefaultSpace(0.2), base, params, metric)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(50, 7, DefaultSpace(0.2), base, params, metric)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed must give identical samples")
		}
	}
	c, err := Run(50, 8, DefaultSpace(0.2), base, params, metric)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical samples")
	}
}

func TestRunStatistics(t *testing.T) {
	// A metric that just returns a perturbed constant gives known
	// statistics.
	space := Space{WaferCostFactor: Uniform{Lo: 0.8, Hi: 1.2}}
	metric := func(s Scenario) (float64, error) {
		return s.DB.MustNode("5nm").WaferCost, nil
	}
	res, err := Run(4000, 1, space, tech.Default(), packaging.DefaultParams(), metric)
	if err != nil {
		t.Fatal(err)
	}
	base := tech.Default().MustNode("5nm").WaferCost
	if m := res.Mean(); math.Abs(m-base)/base > 0.02 {
		t.Errorf("mean = %v, want ≈%v", m, base)
	}
	if q := res.Quantile(0.5); math.Abs(q-base)/base > 0.03 {
		t.Errorf("median = %v, want ≈%v", q, base)
	}
	if lo, hi := res.Quantile(0), res.Quantile(1); lo < 0.8*base || hi > 1.2*base {
		t.Errorf("range [%v, %v] outside the sampled band", lo, hi)
	}
	if p := res.ProbBelow(base * 1.2001); p != 1 {
		t.Errorf("ProbBelow(max) = %v, want 1", p)
	}
	if p := res.ProbWithin(0.8*base, 1.2*base); p < 0.999 {
		t.Errorf("ProbWithin(full band) = %v, want ≈1", p)
	}
	if res.Std() <= 0 {
		t.Error("zero variance from a uniform band")
	}
}

func TestRunCountsFailures(t *testing.T) {
	i := 0
	metric := func(Scenario) (float64, error) {
		i++
		if i%2 == 0 {
			return 0, fmt.Errorf("boom")
		}
		return 1, nil
	}
	res, err := Run(10, 1, Space{}, tech.Default(), packaging.DefaultParams(), metric)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 5 || len(res.Samples) != 5 {
		t.Errorf("failures = %d, samples = %d; want 5/5", res.Failures, len(res.Samples))
	}
	allFail := func(Scenario) (float64, error) { return 0, fmt.Errorf("no") }
	if _, err := Run(3, 1, Space{}, tech.Default(), packaging.DefaultParams(), allFail); err == nil {
		t.Error("all-failing metric accepted")
	}
}

func TestRunValidation(t *testing.T) {
	ok := func(Scenario) (float64, error) { return 1, nil }
	if _, err := Run(0, 1, Space{}, tech.Default(), packaging.DefaultParams(), ok); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(1, 1, Space{}, tech.Default(), packaging.DefaultParams(), nil); err == nil {
		t.Error("nil metric accepted")
	}
}

func TestPaybackConclusionIsRobust(t *testing.T) {
	// The headline §4.2 conclusion under ±15% parameter noise: the
	// 5nm/800mm² MCM pay-back quantity stays inside (0, 2M] in the
	// overwhelming majority of scenarios.
	base := tech.Default()
	params := packaging.DefaultParams()
	metric := func(s Scenario) (float64, error) {
		ev, err := explore.NewEvaluator(s.DB, s.Params)
		if err != nil {
			return 0, err
		}
		soc := system.Monolithic("soc", "5nm", 800, 1)
		mcm, err := system.PartitionEqual("mcm", "5nm", 800, 2, packaging.MCM, dtod.Fraction{F: 0.10}, 1)
		if err != nil {
			return 0, err
		}
		return ev.CrossoverQuantity(soc, mcm)
	}
	res, err := Run(200, 2022, DefaultSpace(0.15), base, params, metric)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.ProbWithin(0, 2_000_000); p < 0.90 {
		t.Errorf("P(payback ≤ 2M) = %v under ±15%% noise; conclusion not robust", p)
	}
	// And the median stays near the nominal 680k.
	med := res.Quantile(0.5)
	if med < 300_000 || med > 1_500_000 {
		t.Errorf("median payback = %v, implausibly far from nominal", med)
	}
}

func TestPropertyQuantilesMonotone(t *testing.T) {
	res := Result{Samples: []float64{1, 2, 3, 5, 8, 13}}
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 1)
		b = math.Mod(math.Abs(b), 1)
		if a > b {
			a, b = b, a
		}
		return res.Quantile(a) <= res.Quantile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	single := Result{Samples: []float64{4}}
	if single.Quantile(0.3) != 4 || single.Std() != 0 {
		t.Error("single-sample statistics wrong")
	}
}

func TestProbWithinInclusive(t *testing.T) {
	res := Result{Samples: []float64{1, 2, 3}}
	rep := Result{Samples: []float64{1, 2, 2, 2, 3}}
	cases := []struct {
		r      Result
		lo, hi float64
		want   float64
	}{
		{res, 1, 3, 1},
		{res, 3, 3, 1.0 / 3},
		{res, 1, 1, 1.0 / 3},
		{res, 1.5, 2.5, 1.0 / 3},
		{res, 0, 0.5, 0},
		{res, 3.5, 9, 0},
		{res, 3, 1, 0},
		{rep, 2, 2, 3.0 / 5},
		{rep, 1, 2, 4.0 / 5},
		{rep, 2, 3, 4.0 / 5},
	}
	for _, c := range cases {
		if got := c.r.ProbWithin(c.lo, c.hi); got != c.want {
			t.Errorf("ProbWithin(%v, %v) on %v = %v, want %v", c.lo, c.hi, c.r.Samples, got, c.want)
		}
	}
}
