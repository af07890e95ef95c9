package actuary_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"chipletactuary"
)

// encodeReference renders r the way the server's NDJSON loop used to:
// json.Encoder, HTML escaping on, trailing newline.
func encodeReference(t *testing.T, r actuary.Result) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func assertLineIdentity(t *testing.T, r actuary.Result) {
	t.Helper()
	want, refErr := encodeReference(t, r)
	got, err := actuary.AppendResultLine(nil, r)
	if refErr != nil {
		if err == nil {
			t.Fatalf("result %q: encoding/json failed (%v) but AppendResultLine succeeded", r.ID, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("result %q: AppendResultLine: %v", r.ID, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result %q: NDJSON bytes diverge\n got %s\nwant %s", r.ID, got, want)
	}
}

// TestAppendResultLineStreamIdentity drains a real sweep stream —
// successes on both lean and materialized paths plus structured
// failures — and demands byte identity line by line.
func TestAppendResultLineStreamIdentity(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grids := []actuary.SweepGrid{
		testGrid(mustAreaRange(t, 100, 500, 50), []int{1, 2, 3, 4}),
		{
			Name:       "badnode",
			Nodes:      []string{"no-such-node"},
			Schemes:    []actuary.Scheme{actuary.MCM},
			AreasMM2:   []float64{100, 200},
			Counts:     []int{1, 2},
			Quantities: []float64{1000},
			D2D:        actuary.D2DFraction(0.10),
		},
	}
	seen := 0
	var buf []byte
	for _, grid := range grids {
		for _, lean := range []bool{false, true} {
			gen := grid.Points()
			if lean {
				gen.Lean()
			}
			src, err := actuary.SweepSource(gen, actuary.QuestionTotalCost, actuary.PerSystemUnit)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := s.Stream(context.Background(), src, actuary.StreamSpec{Ordered: true})
			if err != nil {
				t.Fatal(err)
			}
			for r := range ch {
				assertLineIdentity(t, r)
				// Also through a reused buffer, the server's pattern.
				buf, err = actuary.AppendResultLine(buf[:0], r)
				if err != nil {
					t.Fatalf("reused buffer: %v", err)
				}
				want, _ := encodeReference(t, r)
				if !bytes.Equal(buf, want) {
					t.Fatalf("result %q: reused-buffer bytes diverge", r.ID)
				}
				seen++
			}
		}
	}
	if seen == 0 {
		t.Fatal("streams produced no results")
	}
}

// TestAppendResultLineAdversarialValues hits the encoder's edge cases:
// float notation switchovers, exponent trimming, HTML and control
// characters, invalid UTF-8, JSONP separators, and non-finite values
// that must fall back to encoding/json's exact failure.
func TestAppendResultLineAdversarialValues(t *testing.T) {
	tc := func(v float64) *actuary.TotalCost {
		return &actuary.TotalCost{
			RE:  actuary.REBreakdown{RawChips: v, ChipDefects: -v},
			NRE: actuary.NREBreakdown{Modules: v, D2D: v / 3},
		}
	}
	floats := []float64{
		0, 1, -1, 0.1, -0.1, 1e-6, 9.999999e-7, 1e-7, 1e21, 9.99999e20,
		-1e21, 1e-9, 2.5e-22, 1e300, -4.9e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 225.50768801562344, 1768.4945867096344,
		1.0 / 3.0, 123456789.123456789,
	}
	for _, f := range floats {
		assertLineIdentity(t, actuary.Result{Index: 1, ID: "f", Question: actuary.QuestionTotalCost, TotalCost: tc(f)})
	}
	ids := []string{
		"", "plain", "a<b>&c", `quote"back\slash`, "tab\tnewline\nret\r",
		"ctrl\x01\x1f", "del\x7f", "utf8-ok-é世界",
		"bad-utf8-\xff\xfe", "jsonp-\u2028-\u2029-end", "emoji-\U0001F600",
		"\b\f",
	}
	for _, id := range ids {
		assertLineIdentity(t, actuary.Result{Index: 2, ID: id, Question: actuary.QuestionTotalCost, TotalCost: tc(1.5)})
	}
	// Dies carry strings and floats of their own.
	withDies := tc(10)
	withDies.RE.Dies = []actuary.DieCost{
		{Name: "x<&>", Node: "5nm", AreaMM2: 1e-8, Raw: 0.5, Yield: 0.9999999, KGD: 3},
		{Name: "y", Node: "7nm", AreaMM2: 400, Raw: 2, Yield: 1, KGD: 2.0000000000000004},
	}
	assertLineIdentity(t, actuary.Result{Index: 3, ID: "dies", Question: actuary.QuestionTotalCost, TotalCost: withDies})
	// Unknown scheme/flow values inside packaging force the fallback,
	// which errors exactly as encoding/json does.
	badScheme := tc(1)
	badScheme.RE.Packaging.Scheme = actuary.Scheme(99)
	assertLineIdentity(t, actuary.Result{Index: 4, ID: "bad-scheme", Question: actuary.QuestionTotalCost, TotalCost: badScheme})
	// Non-finite floats: both paths must fail identically.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		assertLineIdentity(t, actuary.Result{Index: 5, ID: "nonfinite", Question: actuary.QuestionTotalCost, TotalCost: tc(f)})
	}
	// Unknown question: fallback, which errors like encoding/json.
	assertLineIdentity(t, actuary.Result{Index: 6, ID: "bad-q", Question: actuary.Question(42), TotalCost: tc(1)})
	// Non-fast shapes route through the reflective encoder untouched.
	assertLineIdentity(t, actuary.Result{Index: 7, ID: "quantity", Question: actuary.QuestionWafers, TotalCost: tc(1), Quantity: 5})
	assertLineIdentity(t, actuary.Result{Index: 8, Question: actuary.QuestionTotalCost})
}

// TestAppendResultLineRandomFloats fuzzes the float formatter against
// encoding/json across the full exponent range, including subnormals
// and exact powers of ten around both notation cutoffs.
func TestAppendResultLineRandomFloats(t *testing.T) {
	// A deterministic xorshift so the test needs no seed plumbing.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 5000; i++ {
		bits := next()
		f := math.Float64frombits(bits)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		r := actuary.Result{Index: i, ID: "rf", Question: actuary.QuestionTotalCost,
			TotalCost: &actuary.TotalCost{RE: actuary.REBreakdown{RawChips: f}}}
		assertLineIdentity(t, r)
	}
	for exp := -30; exp <= 30; exp++ {
		f := math.Pow(10, float64(exp))
		r := actuary.Result{Index: exp, ID: "p10", Question: actuary.QuestionTotalCost,
			TotalCost: &actuary.TotalCost{RE: actuary.REBreakdown{RawChips: f, ChipDefects: -f}}}
		assertLineIdentity(t, r)
	}
}
