package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
)

// robustnessGolden writes every field of the rows, floats in exact
// hexadecimal, so a comparison of two renderings is a bit comparison.
func robustnessGolden(rows []RobustnessRow) []byte {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s\tmedian=%s\tp10=%s\tp90=%s\thold=%s\tfailures=%d\n",
			r.Conclusion, hex(r.Median), hex(r.P10), hex(r.P90), hex(r.HoldProbability), r.Failures)
	}
	return buf.Bytes()
}

// TestRobustnessGolden pins the robustness study bit for bit on the
// built-in database (50 scenarios per conclusion, ±15% bands);
// cmd/figures' golden pins only the printed three digits.
func TestRobustnessGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/robustness.golden")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Robustness(tech.Default(), packaging.DefaultParams(), 50, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if got := robustnessGolden(rows); !bytes.Equal(got, want) {
		t.Fatalf("robustness rows differ from testdata/robustness.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
