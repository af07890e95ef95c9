package cost

import (
	"reflect"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// TestUniformFastPathMatchesSlow sweeps the uniform-partition shapes
// the generator emits and checks the closed-form fast path against the
// general placement walk bit for bit — values with ==, errors by
// message. The 200,000 mm² area fits neither the wafer nor the package,
// so it pins the walk's order: the die error before the package one.
func TestUniformFastPathMatchesSlow(t *testing.T) {
	e := engine(t)
	checked := 0
	for _, node := range []string{"5nm", "7nm", "14nm", "28nm", "no-such-node"} {
		for _, scheme := range packaging.Schemes {
			for _, flow := range []packaging.Flow{packaging.ChipLast, packaging.ChipFirst} {
				for _, area := range []float64{25, 300, 600, 800, 1600, 200000} {
					for _, k := range []int{1, 2, 3, 5, 8} {
						for _, q := range []float64{0, 1, 500_000, -3} {
							s, err := system.PartitionEqual("pt", node, area, k, scheme, dtod.Fraction{F: 0.10}, q)
							if err != nil {
								continue // unbuildable (SoC with k > 1)
							}
							s.Flow = flow
							if _, ok := system.AsUniform(s); !ok {
								t.Fatalf("PartitionEqual point not uniform: %s %v k=%d", node, scheme, k)
							}
							got, gerr := e.RE(s)
							want, werr := e.reSlow(s)
							if (gerr == nil) != (werr == nil) {
								t.Fatalf("%s/%v/%v k=%d q=%v: err %v vs %v", node, scheme, flow, k, q, gerr, werr)
							}
							if gerr != nil {
								if gerr.Error() != werr.Error() {
									t.Fatalf("%s/%v/%v k=%d q=%v: error %q, want %q", node, scheme, flow, k, q, gerr, werr)
								}
								continue
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%v/%v k=%d q=%v:\n got %+v\nwant %+v", node, scheme, flow, k, q, got, want)
							}
							checked++
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
