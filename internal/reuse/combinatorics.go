// Package reuse builds the chiplet-reuse architectures of the paper's
// §5: SCMS (single chiplet, multiple systems), OCME (one center,
// multiple extensions) and FSMC (a few sockets, multiple
// collocations), including the package-reuse variants and OCME's
// heterogeneous center die.
package reuse

import (
	"fmt"
	"math"
	"strconv"
)

// Choose returns the binomial coefficient C(n, k) as a float64 (the
// counts in play stay far below 2^53). It returns 0 for k < 0 or
// k > n.
func Choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := 1.0
	for i := 1; i <= k; i++ {
		result = result * float64(n-k+i) / float64(i)
	}
	return math.Round(result)
}

// Multichoose returns the number of multisets of size k drawn from n
// types: C(n+k-1, k).
func Multichoose(n, k int) float64 {
	return Choose(n+k-1, k)
}

// CollocationCount is the paper's §5.3 formula for the number of
// distinct systems buildable from n chiplet types in a package with k
// sockets, allowing partial occupancy:
//
//	Σ_{i=1..k} C(n+i-1, i)
//
// Note: the paper's text quotes "up to 119" systems for n=6, k=4, but
// the formula evaluates to 209; we implement the formula and record
// the discrepancy in EXPERIMENTS.md.
func CollocationCount(n, k int) float64 {
	var total float64
	for i := 1; i <= k; i++ {
		total += Multichoose(n, i)
	}
	return total
}

// Collocation is one way to populate a package: Counts[t] copies of
// chiplet type t. The total count is between 1 and the socket count.
type Collocation struct {
	Counts []int
}

// Size returns the number of occupied sockets.
func (c Collocation) Size() int {
	n := 0
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// Label renders a stable human-readable name such as "T1x2+T3".
func (c Collocation) Label() string {
	var stack [64]byte
	b := stack[:0]
	for t, v := range c.Counts {
		if v < 1 {
			continue
		}
		if len(b) > 0 {
			b = append(b, '+')
		}
		b = append(b, 'T')
		b = strconv.AppendInt(b, int64(t+1), 10)
		if v > 1 {
			b = append(b, 'x')
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return string(b)
}

// Collocations enumerates every multiset of 1..k chiplets drawn from n
// types, in deterministic order: by size, then by counts in descending
// lexicographic order. The order comes from the generation itself (each
// size is built separately, and each type takes its most copies
// first), not from a sort.
func Collocations(n, k int) ([]Collocation, error) {
	if n < 1 {
		return nil, fmt.Errorf("reuse: need at least one chiplet type, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("reuse: need at least one socket, got %d", k)
	}
	total := int(CollocationCount(n, k))
	out := make([]Collocation, 0, total)
	// Every collocation's counts are a capacity-capped window of one
	// backing array.
	backing := make([]int, total*n)
	counts := make([]int, n)
	// No resets needed: each loop ends at take 0, and every leaf sets
	// the last count before copying.
	var rec func(typeIdx, remaining int)
	rec = func(typeIdx, remaining int) {
		if typeIdx == n-1 {
			counts[typeIdx] = remaining
			i := len(out) * n
			cp := backing[i : i+n : i+n]
			copy(cp, counts)
			out = append(out, Collocation{Counts: cp})
			return
		}
		for take := remaining; take >= 0; take-- {
			counts[typeIdx] = take
			rec(typeIdx+1, remaining-take)
		}
	}
	for size := 1; size <= k; size++ {
		rec(0, size)
	}
	return out, nil
}
