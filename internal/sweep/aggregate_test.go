package sweep

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

type scored struct {
	id   string
	cost float64
}

func TestTopKKeepsCheapest(t *testing.T) {
	top := NewTopK(3, func(s scored) float64 { return s.cost })
	costs := []float64{9, 4, 7, 1, 8, 3, 6, 2, 5}
	for i, c := range costs {
		top.Observe(scored{id: string(rune('a' + i)), cost: c})
	}
	if top.Seen() != len(costs) {
		t.Errorf("Seen = %d, want %d", top.Seen(), len(costs))
	}
	got := top.Sorted()
	if len(got) != 3 || got[0].cost != 1 || got[1].cost != 2 || got[2].cost != 3 {
		t.Errorf("Sorted = %v, want costs [1 2 3]", got)
	}
	if top.Len() != 3 {
		t.Errorf("Len = %d, want 3", top.Len())
	}
}

func TestTopKFewerThanK(t *testing.T) {
	top := NewTopK(5, func(s scored) float64 { return s.cost })
	top.Observe(scored{"a", 2})
	top.Observe(scored{"b", 1})
	got := top.Sorted()
	if len(got) != 2 || got[0].id != "b" || got[1].id != "a" {
		t.Errorf("Sorted = %v", got)
	}
}

// TestTopKMatchesFullSortRandomized checks the selector against a full
// sort, on continuous costs and on costs drawn from five values, where
// ties at the heap's root are the common case. With a tie-break key the
// retained items must be exactly the sort's first k under (cost, id);
// without one, the first k costs.
func TestTopKMatchesFullSortRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, few := range []bool{false, true} {
		for _, tieBreak := range []bool{false, true} {
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(200)
				k := 1 + rng.Intn(10)
				top := NewTopK(k, func(s scored) float64 { return s.cost })
				if tieBreak {
					top.TieBreak(func(s scored) string { return s.id })
				}
				all := make([]scored, n)
				for i := range all {
					all[i] = scored{id: fmt.Sprintf("p%03d", rng.Intn(1000)*1000+i), cost: rng.Float64() * 100}
					if few {
						all[i].cost = float64(rng.Intn(5))
					}
					top.Observe(all[i])
				}
				sort.Slice(all, func(i, j int) bool {
					if all[i].cost != all[j].cost {
						return all[i].cost < all[j].cost
					}
					return all[i].id < all[j].id
				})
				want := k
				if n < k {
					want = n
				}
				got := top.Sorted()
				what := fmt.Sprintf("few=%v tieBreak=%v trial %d", few, tieBreak, trial)
				if len(got) != want {
					t.Fatalf("%s: kept %d, want %d", what, len(got), want)
				}
				for i, s := range got {
					if s.cost != all[i].cost || (tieBreak && s.id != all[i].id) {
						t.Fatalf("%s: rank %d %+v, want %+v", what, i, s, all[i])
					}
				}
			}
		}
	}
}

type biObj struct {
	id   string
	x, y float64
}

func TestParetoFront(t *testing.T) {
	p := NewPareto(func(b biObj) (float64, float64) { return b.x, b.y })
	for _, b := range []biObj{
		{"a", 1, 9}, {"b", 5, 5}, {"c", 9, 1},
		{"dominated", 6, 6}, // dominated by b
		{"d", 3, 7},
		{"evictor", 2, 6}, // dominates d (3,7)
	} {
		p.Observe(b)
	}
	front := p.Front()
	ids := make([]string, len(front))
	for i, b := range front {
		ids[i] = b.id
	}
	want := []string{"a", "evictor", "b", "c"}
	if len(ids) != len(want) {
		t.Fatalf("front = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("front = %v, want %v", ids, want)
		}
	}
	if p.Seen() != 6 {
		t.Errorf("Seen = %d, want 6", p.Seen())
	}
}

func TestParetoEqualCoordinates(t *testing.T) {
	p := NewPareto(func(b biObj) (float64, float64) { return b.x, b.y })
	p.Observe(biObj{"first", 2, 2})
	p.Observe(biObj{"duplicate", 2, 2}) // weakly dominated: dropped
	p.Observe(biObj{"same-x-better-y", 2, 1})
	p.Observe(biObj{"same-x-worse-y", 2, 3})
	front := p.Front()
	if len(front) != 1 || front[0].id != "same-x-better-y" {
		t.Errorf("front = %v, want only same-x-better-y", front)
	}
}

// TestParetoMatchesBruteForce checks the online front against an O(n²)
// reference on random inputs.
func TestParetoMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(150)
		pts := make([]biObj, n)
		p := NewPareto(func(b biObj) (float64, float64) { return b.x, b.y })
		for i := range pts {
			// A coarse grid provokes ties on both axes.
			pts[i] = biObj{x: float64(rng.Intn(12)), y: float64(rng.Intn(12))}
			p.Observe(pts[i])
		}
		dominated := func(a biObj) bool {
			for _, b := range pts {
				if b.x <= a.x && b.y <= a.y && (b.x < a.x || b.y < a.y) {
					return true
				}
			}
			return false
		}
		wantSet := make(map[[2]float64]bool)
		for _, a := range pts {
			if !dominated(a) {
				wantSet[[2]float64{a.x, a.y}] = true
			}
		}
		front := p.Front()
		if len(front) != len(wantSet) {
			t.Fatalf("trial %d: front size %d, want %d", trial, len(front), len(wantSet))
		}
		for i, b := range front {
			if !wantSet[[2]float64{b.x, b.y}] {
				t.Fatalf("trial %d: front holds dominated point %+v", trial, b)
			}
			if i > 0 && (front[i-1].x >= b.x || front[i-1].y <= b.y) {
				t.Fatalf("trial %d: front not strictly sorted: %+v then %+v", trial, front[i-1], b)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Error("empty summary mean should be 0")
	}
	s.Observe("a", 4)
	s.Observe("b", 1)
	s.Observe("c", 7)
	if s.Count != 3 || s.Min != 1 || s.Max != 7 || s.MinID != "b" || s.MaxID != "c" {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean() != 4 {
		t.Errorf("mean = %v, want 4", s.Mean())
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, whole Summary
	for i, v := range []float64{5, 3, 9, 1, 7} {
		if i%2 == 0 {
			a.Observe(string(rune('a'+i)), v)
		} else {
			b.Observe(string(rune('a'+i)), v)
		}
		whole.Observe(string(rune('a'+i)), v)
	}
	a.Merge(b)
	if a != whole {
		t.Errorf("merged = %+v, want %+v", a, whole)
	}
	var empty Summary
	a.Merge(empty) // no-op
	if a != whole {
		t.Errorf("merging an empty summary changed %+v", a)
	}
	empty.Merge(whole)
	if empty != whole {
		t.Errorf("merge into empty = %+v, want %+v", empty, whole)
	}
}

func TestTopKTieBreakDeterminism(t *testing.T) {
	// Many equal-cost items: with a tie-break key the retained set and
	// order are identical under every arrival permutation.
	items := []scored{
		{"e", 2}, {"a", 1}, {"c", 1}, {"b", 1}, {"d", 1}, {"f", 2}, {"g", 0.5},
	}
	want := []string{"g", "a", "b"}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		perm := append([]scored(nil), items...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		top := NewTopK(3, func(s scored) float64 { return s.cost }).
			TieBreak(func(s scored) string { return s.id })
		for _, it := range perm {
			top.Observe(it)
		}
		got := top.Sorted()
		for i, w := range want {
			if got[i].id != w {
				t.Fatalf("trial %d: Sorted = %v, want ids %v", trial, got, want)
			}
		}
	}
}

func TestTopKMerge(t *testing.T) {
	cost := func(s scored) float64 { return s.cost }
	key := func(s scored) string { return s.id }
	var items []scored
	for i := 0; i < 40; i++ {
		items = append(items, scored{id: fmt.Sprintf("p%02d", i), cost: float64(i % 7)})
	}
	want := NewTopK(5, cost).TieBreak(key)
	for _, it := range items {
		want.Observe(it)
	}
	// Any partition of the stream, merged, reproduces the whole.
	for n := 1; n <= 5; n++ {
		merged := NewTopK(5, cost).TieBreak(key)
		for i := 0; i < n; i++ {
			part := NewTopK(5, cost).TieBreak(key)
			for j, it := range items {
				if j%n == i {
					part.Observe(it)
				}
			}
			merged.Merge(part)
		}
		if merged.Seen() != want.Seen() {
			t.Fatalf("n=%d: merged saw %d, want %d", n, merged.Seen(), want.Seen())
		}
		got, exp := merged.Sorted(), want.Sorted()
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("n=%d: merged Sorted = %v, want %v", n, got, exp)
			}
		}
	}
}

func TestParetoTieBreakAndMerge(t *testing.T) {
	obj := func(b biObj) (float64, float64) { return b.x, b.y }
	key := func(b biObj) string { return b.id }
	// Two exact duplicates of the same objective pair: the smaller id
	// wins regardless of order.
	for _, order := range [][]biObj{
		{{id: "z", x: 1, y: 1}, {id: "a", x: 1, y: 1}},
		{{id: "a", x: 1, y: 1}, {id: "z", x: 1, y: 1}},
	} {
		p := NewPareto(obj).TieBreak(key)
		for _, b := range order {
			p.Observe(b)
		}
		front := p.Front()
		if len(front) != 1 || front[0].id != "a" {
			t.Fatalf("duplicate tie kept %v, want [a]", front)
		}
	}
	// Merged shard fronts reproduce the whole front.
	var items []biObj
	for i := 0; i < 30; i++ {
		items = append(items, biObj{id: fmt.Sprintf("b%02d", i),
			x: float64(i % 6), y: float64((13 * i) % 7)})
	}
	want := NewPareto(obj).TieBreak(key)
	for _, b := range items {
		want.Observe(b)
	}
	for n := 1; n <= 4; n++ {
		merged := NewPareto(obj).TieBreak(key)
		for i := 0; i < n; i++ {
			part := NewPareto(obj).TieBreak(key)
			for j, b := range items {
				if j%n == i {
					part.Observe(b)
				}
			}
			merged.Merge(part)
		}
		if merged.Seen() != want.Seen() {
			t.Fatalf("n=%d: merged saw %d, want %d", n, merged.Seen(), want.Seen())
		}
		got, exp := merged.Front(), want.Front()
		if len(got) != len(exp) {
			t.Fatalf("n=%d: merged front %v, want %v", n, got, exp)
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("n=%d: merged front %v, want %v", n, got, exp)
			}
		}
	}
}

func TestSummaryTieBreakAndMerge(t *testing.T) {
	var a, b, whole Summary
	obs := []struct {
		id string
		v  float64
	}{{"m", 3}, {"b", 1}, {"a", 1}, {"z", 9}, {"y", 9}}
	for i, o := range obs {
		whole.Observe(o.id, o.v)
		if i%2 == 0 {
			a.Observe(o.id, o.v)
		} else {
			b.Observe(o.id, o.v)
		}
	}
	if whole.MinID != "a" || whole.MaxID != "y" {
		t.Fatalf("tie-broken summary labels = %q/%q, want a/y", whole.MinID, whole.MaxID)
	}
	var merged Summary
	merged.Merge(a)
	merged.Merge(b)
	if merged.Count != whole.Count || merged.Min != whole.Min || merged.Max != whole.Max ||
		merged.MinID != whole.MinID || merged.MaxID != whole.MaxID {
		t.Fatalf("merged summary %+v != whole %+v", merged, whole)
	}
}

// TestTopKStateRoundTrip: State/SetState reproduces the selector —
// same retained set, same Seen — and continuing both selectors with
// the same tail keeps them identical.
func TestTopKStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cost := func(s scored) float64 { return s.cost }
	key := func(s scored) string { return s.id }
	orig := NewTopK(4, cost).TieBreak(key)
	items := make([]scored, 40)
	for i := range items {
		items[i] = scored{id: fmt.Sprintf("p%02d", i), cost: float64(rng.Intn(10))}
	}
	for _, it := range items[:25] {
		orig.Observe(it)
	}
	restored := NewTopK(4, cost).TieBreak(key)
	if err := restored.SetState(orig.State()); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	for _, it := range items[25:] {
		orig.Observe(it)
		restored.Observe(it)
	}
	if orig.Seen() != restored.Seen() {
		t.Fatalf("seen %d != %d", restored.Seen(), orig.Seen())
	}
	a, b := orig.Sorted(), restored.Sorted()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("restored selector diverged: %v != %v", b, a)
	}
}

// TestTopKSetStateRejectsCorrupt covers the state guard rails.
func TestTopKSetStateRejectsCorrupt(t *testing.T) {
	cost := func(s scored) float64 { return s.cost }
	fresh := func() *TopK[scored] { return NewTopK(2, cost).TieBreak(func(s scored) string { return s.id }) }
	cases := []TopKState[scored]{
		{K: 0},
		{K: 2, Seen: 3, Items: []scored{{id: "a"}, {id: "b"}, {id: "c"}}},
		{K: 2, Seen: 1, Items: []scored{{id: "a"}, {id: "b"}}},
	}
	for _, st := range cases {
		if err := fresh().SetState(st); err == nil {
			t.Fatalf("SetState(%+v) should fail", st)
		}
	}
}

// TestParetoStateRoundTrip mirrors the TopK round trip for fronts,
// and checks that a dominated entry smuggled into a state is dropped.
func TestParetoStateRoundTrip(t *testing.T) {
	obj := func(p biObj) (float64, float64) { return p.x, p.y }
	key := func(p biObj) string { return p.id }
	orig := NewPareto(obj).TieBreak(key)
	rng := rand.New(rand.NewSource(22))
	var pts []biObj
	for i := 0; i < 30; i++ {
		pts = append(pts, biObj{id: fmt.Sprintf("p%02d", i), x: float64(rng.Intn(8)), y: float64(rng.Intn(8))})
	}
	for _, p := range pts[:20] {
		orig.Observe(p)
	}
	restored := NewPareto(obj).TieBreak(key)
	if err := restored.SetState(orig.State()); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	for _, p := range pts[20:] {
		orig.Observe(p)
		restored.Observe(p)
	}
	if orig.Seen() != restored.Seen() {
		t.Fatalf("seen %d != %d", restored.Seen(), orig.Seen())
	}
	if fmt.Sprint(orig.Front()) != fmt.Sprint(restored.Front()) {
		t.Fatalf("restored front diverged: %v != %v", restored.Front(), orig.Front())
	}

	bad := ParetoState[biObj]{Seen: 2, Front: []biObj{{id: "a", x: 1, y: 1}, {id: "b", x: 2, y: 2}}}
	p := NewPareto(obj).TieBreak(key)
	if err := p.SetState(bad); err != nil {
		t.Fatalf("SetState with dominated entry: %v", err)
	}
	if len(p.Front()) != 1 {
		t.Fatalf("dominated entry survived restore: %v", p.Front())
	}
	if err := p.SetState(ParetoState[biObj]{Seen: 0, Front: bad.Front}); err == nil {
		t.Fatal("seen below front size should be rejected")
	}
}

// TestParetoSetStateLeavesReceiverOnError pins the TopK-matching
// guarantee: a rejected state must not touch a live front.
func TestParetoSetStateLeavesReceiverOnError(t *testing.T) {
	obj := func(p biObj) (float64, float64) { return p.x, p.y }
	p := NewPareto(obj).TieBreak(func(p biObj) string { return p.id })
	p.Observe(biObj{id: "keep", x: 1, y: 1})
	bad := ParetoState[biObj]{Seen: 0, Front: []biObj{{id: "bogus", x: 2, y: 0}}}
	if err := p.SetState(bad); err == nil {
		t.Fatal("inconsistent state should be rejected")
	}
	if front := p.Front(); len(front) != 1 || front[0].id != "keep" || p.Seen() != 1 {
		t.Fatalf("rejected SetState mutated the front: %v seen %d", front, p.Seen())
	}
}
