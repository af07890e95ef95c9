package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/montecarlo"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
)

// sameBits reports whether a and b print identically under %#v, which
// writes every float in its shortest exact form: equal output means
// equal bits (NaN payloads aside).
func sameBits(a, b any) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// TestClaimCellsMatchFigures checks that the cells Claims prices on
// their own are bit-identical to the same cells of the whole figures,
// on the built-in database and on three sampled ones.
func TestClaimCellsMatchFigures(t *testing.T) {
	type input struct {
		name   string
		db     *tech.Database
		params packaging.Params
	}
	inputs := []input{{"default", tech.Default(), packaging.DefaultParams()}}
	for seed := int64(1); seed <= 3; seed++ {
		sc, err := montecarlo.DefaultSpace(0.1).Sample(rand.New(rand.NewSource(seed)), tech.Default(), packaging.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("seed-%d", seed), sc.DB, sc.Params})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			eng, err := cost.NewEngine(in.db, in.params)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := explore.NewEvaluator(in.db, in.params)
			if err != nil {
				t.Fatal(err)
			}

			full10, err := Fig10(ev)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := fig10Config(ev, 4, 6)
			if err != nil {
				t.Fatal(err)
			}
			var want10 []Fig10Cell
			for _, c := range full10.Cells {
				if c.K == 4 && c.N == 6 {
					want10 = append(want10, c)
				}
			}
			if len(want10) != len(Fig10Schemes) || !sameBits(cells, want10) {
				t.Errorf("fig10Config(4, 6) = %+v, Fig10 cells = %+v", cells, want10)
			}

			full4, err := Fig4(eng)
			if err != nil {
				t.Fatal(err)
			}
			for _, bar := range []struct {
				node   string
				k      int
				area   float64
				scheme packaging.Scheme
			}{{"14nm", 2, 800, packaging.MCM}, {"7nm", 3, 900, packaging.TwoPointFiveD}} {
				got, err := claimFig4Bar(eng, bar.node, bar.k, bar.area, bar.scheme)
				if err != nil {
					t.Fatal(err)
				}
				want, err := full4.Bar(bar.node, bar.k, bar.area, bar.scheme)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Errorf("fig4 bar %+v: got %+v, want %+v", bar, got, want)
				}
			}

			full5, err := Fig5(in.db, in.params)
			if err != nil {
				t.Fatal(err)
			}
			// Claims reads the 16- and 64-core rows, Robustness the
			// 64-core row: the default list's first and last.
			rows := full5.Rows
			for _, c := range []struct {
				cores []int
				want  []Fig5Row
			}{
				{[]int{16, 64}, []Fig5Row{rows[0], rows[len(rows)-1]}},
				{[]int{64}, rows[len(rows)-1:]},
			} {
				cfg := DefaultFig5Config()
				cfg.CoreCounts = c.cores
				got, err := Fig5WithConfig(in.db, in.params, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Rows, c.want) {
					t.Errorf("fig5 rows for %v differ from Fig5's:\n got %+v\nwant %+v", c.cores, got.Rows, c.want)
				}
			}
		})
	}
}
