package actuary

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// runReorder feeds the given completion-order indexes through
// reorderResults and returns the emitted indexes and the sum of the
// onEmit grants.
func runReorder(t *testing.T, indexes []int, next, window int) (got []int, granted int) {
	t.Helper()
	in := make(chan Result, len(indexes))
	for _, i := range indexes {
		in <- Result{Index: i}
	}
	close(in)
	out := make(chan Result)
	go reorderResults(context.Background(), in, out, next, window, func(n int) { granted += n })
	for r := range out {
		got = append(got, r.Index)
	}
	return got, granted
}

// TestReorderResults checks the reordering contract: completion-order
// input within the credit window comes out in index order, each
// in-order emission is granted back through onEmit exactly once, and
// results stranded behind a gap flush in ascending order at close.
func TestReorderResults(t *testing.T) {
	// Index 4 buffers until 2 and 3 arrive; the window wraps the ring.
	got, granted := runReorder(t, []int{4, 2, 3, 6, 5, 7}, 2, 4)
	if want := []int{2, 3, 4, 5, 6, 7}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ordered indexes %v, want %v", got, want)
	}
	if granted != len(got) {
		t.Fatalf("onEmit granted %d credits for %d emissions", granted, len(got))
	}

	// 6 never arrives: 9 and 7 flush ascending after close, and only
	// the in-order emissions are granted.
	got, granted = runReorder(t, []int{4, 2, 9, 3, 5, 7}, 2, 8)
	if want := []int{2, 3, 4, 5, 7, 9}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("gap flush: ordered indexes %v, want %v", got, want)
	}
	if granted != 4 {
		t.Fatalf("gap flush: onEmit granted %d credits, want 4 (indexes 2..5)", granted)
	}
}

// TestReorderResultsCancellation pins the abandonment contract: a
// consumer that cancels the context and walks away without draining
// must release the reordering goroutine, exactly as it may with the
// raw stream channel.
func TestReorderResultsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Result, 2)
	out := make(chan Result) // abandoned: no reader, ever
	done := make(chan struct{})
	go func() {
		defer close(done)
		reorderResults(ctx, in, out, 0, 4, func(int) {})
	}()
	in <- Result{Index: 1} // held in the ring: index 0 is missing
	in <- Result{Index: 2}
	cancel()
	close(in)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reordering goroutine still alive — leaked after cancel+abandon")
	}
}
