package nre

import (
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// TestEvaluateUniformMatchesPortfolio sweeps the uniform-partition
// shapes the generator emits and checks the closed-form fast path
// against the full portfolio walk bit for bit — breakdowns with ==,
// errors by message — under both amortization policies.
func TestEvaluateUniformMatchesPortfolio(t *testing.T) {
	e := engine(t)
	checked := 0
	for _, node := range []string{"5nm", "7nm", "14nm", "28nm", "no-such-node"} {
		for _, scheme := range packaging.Schemes {
			for _, flow := range []packaging.Flow{packaging.ChipLast, packaging.ChipFirst} {
				for _, area := range []float64{25, 300, 800, 1600} {
					for _, k := range []int{1, 2, 3, 5, 8} {
						for _, q := range []float64{0, 1, 500_000, -3} {
							for _, policy := range []Policy{PerSystemUnit, PerInstance} {
								s, err := system.PartitionEqual("pt", node, area, k, scheme, dtod.Fraction{F: 0.10}, q)
								if err != nil {
									continue // unbuildable (SoC with k > 1)
								}
								s.Flow = flow
								u, ok := system.AsUniform(s)
								if !ok {
									t.Fatalf("PartitionEqual point not uniform: %s %v k=%d", node, scheme, k)
								}
								got, gerr := e.EvaluateUniform(s, u, policy)
								wantRes, werr := e.Single(s, policy)
								if (gerr == nil) != (werr == nil) {
									t.Fatalf("%s/%v/%v k=%d q=%v %v: err %v vs %v",
										node, scheme, flow, k, q, policy, gerr, werr)
								}
								if gerr != nil {
									if gerr.Error() != werr.Error() {
										t.Fatalf("%s/%v/%v k=%d q=%v %v: error %q, want %q",
											node, scheme, flow, k, q, policy, gerr, werr)
									}
									continue
								}
								want := wantRes.PerUnit[s.Name]
								if got != want {
									t.Fatalf("%s/%v/%v k=%d q=%v %v:\n got %+v\nwant %+v",
										node, scheme, flow, k, q, policy, got, want)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no successful points compared")
	}
}
