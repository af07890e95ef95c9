package reuse

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sortedCollocations is the straightforward enumeration: every
// multiset of each size in ascending recursion order, then a stable
// sort by size and descending lexicographic counts. Collocations must
// produce the same order without the sort.
func sortedCollocations(n, k int) []Collocation {
	var out []Collocation
	for size := 1; size <= k; size++ {
		counts := make([]int, n)
		var rec func(typeIdx, remaining int)
		rec = func(typeIdx, remaining int) {
			if typeIdx == n-1 {
				counts[typeIdx] = remaining
				cp := make([]int, n)
				copy(cp, counts)
				out = append(out, Collocation{Counts: cp})
				counts[typeIdx] = 0
				return
			}
			for take := 0; take <= remaining; take++ {
				counts[typeIdx] = take
				rec(typeIdx+1, remaining-take)
			}
			counts[typeIdx] = 0
		}
		rec(0, size)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		for t := range out[i].Counts {
			if out[i].Counts[t] != out[j].Counts[t] {
				return out[i].Counts[t] > out[j].Counts[t]
			}
		}
		return false
	})
	return out
}

func TestCollocationsOrder(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 1; k <= 7; k++ {
			got, err := Collocations(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortedCollocations(n, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: order differs from the sorted enumeration", n, k)
			}
			if float64(len(got)) != CollocationCount(n, k) {
				t.Errorf("n=%d k=%d: %d collocations, formula %v", n, k, len(got), CollocationCount(n, k))
			}
		}
	}
}

// sprintfLabel is the fmt form of Label.
func sprintfLabel(c Collocation) string {
	var parts []string
	for t, v := range c.Counts {
		switch {
		case v == 1:
			parts = append(parts, fmt.Sprintf("T%d", t+1))
		case v > 1:
			parts = append(parts, fmt.Sprintf("T%dx%d", t+1, v))
		}
	}
	return strings.Join(parts, "+")
}

func TestLabelMatchesSprintf(t *testing.T) {
	cases := [][]int{
		{},
		{0, 0, 0},
		{1},
		{2, 0, 1},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},     // type 11
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 3}, // type 10 ×12, type 12 ×3
		{10, 1, 0, 100},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, // longer than the stack buffer
	}
	for _, counts := range cases {
		c := Collocation{Counts: counts}
		if got, want := c.Label(), sprintfLabel(c); got != want {
			t.Errorf("Label(%v) = %q, want %q", counts, got, want)
		}
	}
	if got := (Collocation{Counts: []int{0, 0}}).Label(); got != "" {
		t.Errorf("all-zero label = %q, want empty", got)
	}
	for n := 1; n <= 6; n++ {
		cols, err := Collocations(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			if got, want := c.Label(), sprintfLabel(c); got != want {
				t.Fatalf("Label(%v) = %q, want %q", c.Counts, got, want)
			}
		}
	}
}
