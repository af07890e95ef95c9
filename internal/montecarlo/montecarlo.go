// Package montecarlo quantifies how robust the cost model's
// conclusions are to parameter uncertainty. The paper's §4 concedes
// that "applying the model to other cases makes it necessary to
// include the latest relevant data"; this package treats the least
// certain inputs — defect densities, wafer prices, packaging
// constants, design-cost factors — as distributions, resamples the
// whole model, and reports distributions for any scalar metric (a
// cost ratio, a pay-back quantity, a packaging share).
//
// Sampling is deterministic for a given seed, so experiment results
// and tests are reproducible.
package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
)

// Dist is a one-dimensional sampling distribution.
type Dist interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
	// String describes the distribution.
	String() string
}

// Uniform samples uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

func (u Uniform) String() string { return fmt.Sprintf("U[%g, %g]", u.Lo, u.Hi) }

// Triangular samples a triangular distribution on [Lo, Hi] with the
// given Mode — the standard choice for expert-estimated cost inputs.
type Triangular struct {
	Lo, Mode, Hi float64
}

// Sample implements Dist via inverse-CDF sampling.
func (t Triangular) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	fc := (t.Mode - t.Lo) / (t.Hi - t.Lo)
	if u < fc {
		return t.Lo + math.Sqrt(u*(t.Hi-t.Lo)*(t.Mode-t.Lo))
	}
	return t.Hi - math.Sqrt((1-u)*(t.Hi-t.Lo)*(t.Hi-t.Mode))
}

func (t Triangular) String() string {
	return fmt.Sprintf("Tri[%g, %g, %g]", t.Lo, t.Mode, t.Hi)
}

// Normal samples a normal distribution truncated to positive values
// (cost inputs cannot be negative).
type Normal struct {
	Mean, Std float64
}

// Sample implements Dist; it redraws until the sample is positive,
// which for the parameter ranges in use converges immediately.
func (n Normal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		if v := n.Mean + n.Std*r.NormFloat64(); v > 0 {
			return v
		}
	}
	return n.Mean // pathological Std; fall back to the mean
}

func (n Normal) String() string { return fmt.Sprintf("N(%g, %g)", n.Mean, n.Std) }

// Point is a degenerate distribution (always the same value), useful
// for pinning a parameter inside a Space.
type Point struct {
	V float64
}

// Sample implements Dist.
func (p Point) Sample(*rand.Rand) float64 { return p.V }

func (p Point) String() string { return fmt.Sprintf("δ(%g)", p.V) }

// Scenario is one sampled model configuration.
type Scenario struct {
	DB     *tech.Database
	Params packaging.Params
}

// Space describes multiplicative (factor) and additive perturbations
// applied to a base scenario. Factors default to 1 (Point{1}) when
// nil.
type Space struct {
	// DefectDensityFactor scales every logic node's defect density.
	DefectDensityFactor Dist
	// WaferCostFactor scales every node's wafer price.
	WaferCostFactor Dist
	// SubstrateCostFactor scales the organic-substrate cost per
	// layer.
	SubstrateCostFactor Dist
	// DesignCostFactor scales Km, Kc and the fixed chip NRE.
	DesignCostFactor Dist
	// MicroBumpYieldDelta is added to the micro-bump bond yield
	// (clamped to (0, 1]).
	MicroBumpYieldDelta Dist
	// InterposerDefectFactor scales the RDL/SI defect densities.
	InterposerDefectFactor Dist
}

// DefaultSpace returns the ±rel relative band on every factor (e.g.
// 0.2 for ±20%) and a ∓1-point band on the micro-bump yield.
func DefaultSpace(rel float64) Space {
	f := Uniform{Lo: 1 - rel, Hi: 1 + rel}
	return Space{
		DefectDensityFactor:    f,
		WaferCostFactor:        f,
		SubstrateCostFactor:    f,
		DesignCostFactor:       f,
		MicroBumpYieldDelta:    Uniform{Lo: -0.01, Hi: 0.005},
		InterposerDefectFactor: f,
	}
}

func orPoint(d Dist, v float64) Dist {
	if d == nil {
		return Point{V: v}
	}
	return d
}

// Sample draws one scenario from the space around the base database
// and parameters.
func (s Space) Sample(r *rand.Rand, base *tech.Database, params packaging.Params) (Scenario, error) {
	dd := orPoint(s.DefectDensityFactor, 1).Sample(r)
	wc := orPoint(s.WaferCostFactor, 1).Sample(r)
	sc := orPoint(s.SubstrateCostFactor, 1).Sample(r)
	dc := orPoint(s.DesignCostFactor, 1).Sample(r)
	by := orPoint(s.MicroBumpYieldDelta, 0).Sample(r)
	id := orPoint(s.InterposerDefectFactor, 1).Sample(r)

	names := base.Names()
	nodes := make([]tech.Node, 0, len(names))
	for _, name := range names {
		n, err := base.Node(name)
		if err != nil {
			return Scenario{}, err
		}
		if n.Interposer {
			n.DefectDensity *= id
		} else {
			n.DefectDensity *= dd
		}
		n.WaferCost *= wc
		n.Km *= dc
		n.Kc *= dc
		n.FixedChipNRE *= dc
		nodes = append(nodes, n)
	}
	db, err := tech.NewDatabase(nodes...)
	if err != nil {
		return Scenario{}, err
	}
	p := params
	p.SubstrateCostPerLayerMM2 *= sc
	p.MicroBumpBondYield = math.Min(math.Max(p.MicroBumpBondYield+by, 1e-6), 1)
	return Scenario{DB: db, Params: p}, nil
}

// Metric evaluates one scalar under a scenario.
type Metric func(Scenario) (float64, error)

// Result summarizes the sampled metric values.
type Result struct {
	// Samples holds every drawn value, sorted ascending.
	Samples []float64
	// Failures counts scenarios where the metric returned an error
	// (e.g. a sampled geometry became infeasible); they are excluded
	// from the statistics.
	Failures int
}

// Run draws n scenarios (seeded deterministically) and evaluates the
// metric under each. At least one sample must succeed.
func Run(n int, seed int64, space Space, base *tech.Database, params packaging.Params, metric Metric) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("montecarlo: need at least one sample, got %d", n)
	}
	if metric == nil {
		return Result{}, fmt.Errorf("montecarlo: nil metric")
	}
	r := rand.New(rand.NewSource(seed))
	res := Result{Samples: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		scen, err := space.Sample(r, base, params)
		if err != nil {
			return Result{}, err
		}
		v, err := metric(scen)
		if err != nil {
			res.Failures++
			continue
		}
		res.Samples = append(res.Samples, v)
	}
	if len(res.Samples) == 0 {
		return Result{}, fmt.Errorf("montecarlo: all %d scenarios failed", n)
	}
	sort.Float64s(res.Samples)
	return res, nil
}

// Mean returns the sample mean.
func (r Result) Mean() float64 {
	var sum float64
	for _, v := range r.Samples {
		sum += v
	}
	return sum / float64(len(r.Samples))
}

// Std returns the sample standard deviation.
func (r Result) Std() float64 {
	if len(r.Samples) < 2 {
		return 0
	}
	m := r.Mean()
	var ss float64
	for _, v := range r.Samples {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(len(r.Samples)-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// on the sorted samples.
func (r Result) Quantile(q float64) float64 {
	n := len(r.Samples)
	if n == 1 {
		return r.Samples[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		return r.Samples[0]
	}
	if hi >= n {
		return r.Samples[n-1]
	}
	frac := pos - float64(lo)
	return r.Samples[lo]*(1-frac) + r.Samples[hi]*frac
}

// ProbBelow returns the fraction of samples strictly below x.
func (r Result) ProbBelow(x float64) float64 {
	idx := sort.SearchFloat64s(r.Samples, x)
	return float64(idx) / float64(len(r.Samples))
}

// ProbWithin returns the fraction of samples in [lo, hi], both bounds
// included (0 when hi < lo).
func (r Result) ProbWithin(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	below := sort.SearchFloat64s(r.Samples, lo)
	atMost := sort.Search(len(r.Samples), func(i int) bool { return r.Samples[i] > hi })
	return float64(atMost-below) / float64(len(r.Samples))
}
