package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipletactuary"
	"chipletactuary/client"
)

// streamScenario mixes every stage kind the striper handles: explicit
// systems (dealer-striped), a per-system sweep question
// (generator-striped), and a dealer-striped odometer question, over a
// grid that includes reticle-pruned candidates.
func streamScenario() actuary.ScenarioConfig {
	return actuary.ScenarioConfig{
		Version: 2, Name: "striped",
		Questions: []string{"total-cost", "optimal-chiplet-count"},
		Systems: []actuary.SystemConfig{
			{Name: "soc", Scheme: "MCM", Quantity: 1e6, Chiplets: []actuary.ChipletConfig{
				{Name: "die", Node: "7nm", ModuleAreaMM2: 400, D2DFraction: 0.10, Count: 1}}},
			{Name: "quad", Scheme: "2.5D", Quantity: 1e6, Chiplets: []actuary.ChipletConfig{
				{Name: "ccd", Node: "5nm", ModuleAreaMM2: 150, D2DFraction: 0.10, Count: 4}}},
		},
		Sweeps: []actuary.SweepConfig{{
			Name: "grid", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
			D2DFraction: 0.10, Quantity: 1e6,
			AreasMM2: []float64{200, 500, 860}, Counts: []int{1, 2, 3, 4},
		}},
	}
}

// singleBackendStream is the ground truth: the ordered stream of the
// unsharded scenario from one local backend.
func singleBackendStream(t testing.TB, cfg actuary.ScenarioConfig) []actuary.Result {
	t.Helper()
	ch, err := client.Local(newSession(t)).Stream(context.Background(),
		client.StreamRequest{Scenario: cfg, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	return drainStream(t, ch)
}

func drainStream(t testing.TB, ch <-chan actuary.Result) []actuary.Result {
	t.Helper()
	var out []actuary.Result
	for r := range ch {
		if r.Index < 0 {
			t.Fatalf("stream failed in-band: %v", r.Err)
		}
		out = append(out, r)
	}
	return out
}

// assertSameStream checks a merged striped stream against the
// single-backend one: same order, same indexes, and byte-identical
// wire lines.
func assertSameStream(t *testing.T, got, want []actuary.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("striped stream delivered %d results, want %d", len(got), len(want))
	}
	for i := range want {
		gl, gerr := actuary.AppendResultLine(nil, got[i])
		wl, werr := actuary.AppendResultLine(nil, want[i])
		if gerr != nil || werr != nil {
			t.Fatalf("marshaling result %d: %v / %v", i, gerr, werr)
		}
		if string(gl) != string(wl) {
			t.Fatalf("result %d diverged:\n striped %s single  %s", i, gl, wl)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streams are wire-identical but differ structurally")
	}
}

func localRegistry(t testing.TB, backends int) *Registry {
	t.Helper()
	reg := NewRegistry()
	for i := 0; i < backends; i++ {
		if err := reg.Add(fmt.Sprintf("local-%d", i), client.Local(newSession(t))); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestStreamStripedMatchesSingleBackend: the merged stream is
// byte-identical to the single-backend stream for any backend count.
func TestStreamStripedMatchesSingleBackend(t *testing.T) {
	cfg := streamScenario()
	want := singleBackendStream(t, cfg)
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}
	for _, backends := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("backends=%d", backends), func(t *testing.T) {
			coord, err := New(localRegistry(t, backends))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := coord.Stream(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStream(t, drainStream(t, ch), want)
		})
	}
}

// TestStreamRandomGridsProperty: striped output equals single-backend
// output across random grids, shard counts and backend counts.
func TestStreamRandomGridsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	rng := rand.New(rand.NewSource(0xC0571C))
	allNodes := []string{"5nm", "7nm", "10nm"}
	allQuestions := []string{"total-cost", "optimal-chiplet-count", "area-crossover"}
	for trial := 0; trial < 5; trial++ {
		nodes := allNodes[:1+rng.Intn(len(allNodes))]
		schemes := []string{"MCM", "2.5D"}[:1+rng.Intn(2)]
		hi := []float64{400, 650, 900}[rng.Intn(3)]
		counts := []int{1, 2, 3, 4}[:1+rng.Intn(4)]
		questions := allQuestions[:1+rng.Intn(len(allQuestions))]
		cfg := actuary.ScenarioConfig{
			Version: 2, Name: fmt.Sprintf("prop-%d", trial), Questions: questions,
			Sweeps: []actuary.SweepConfig{{
				Name: "grid", Nodes: nodes, Schemes: schemes,
				D2DFraction: 0.10, Quantity: 1e6,
				AreaRange: &actuary.AreaRangeConfig{LoMM2: 200, HiMM2: hi, StepMM2: 150},
				Counts:    counts,
				LoMM2:     100, HiMM2: 1000, // area-crossover bracket
			}},
		}
		backends := 1 + rng.Intn(3)
		shards := 1 + rng.Intn(7)
		t.Run(fmt.Sprintf("trial=%d/backends=%d/shards=%d", trial, backends, shards), func(t *testing.T) {
			want := singleBackendStream(t, cfg)
			coord, err := New(localRegistry(t, backends), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := coord.Stream(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStream(t, drainStream(t, ch), want)
		})
	}
}

// truncatingBackend cuts every stream after `after` results — a
// daemon whose connection keeps dying mid-response. When cut is
// non-nil it is closed at the first cut.
type truncatingBackend struct {
	inner client.Backend
	after int
	cuts  atomic.Int32
	cut   chan struct{}
	once  sync.Once
}

func (b *truncatingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	return b.inner.Evaluate(ctx, reqs)
}

func (b *truncatingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	streamCtx, cancel := context.WithCancel(ctx)
	ch, err := b.inner.Stream(streamCtx, req)
	if err != nil {
		cancel()
		return nil, err
	}
	out := make(chan actuary.Result)
	go func() {
		defer close(out)
		defer cancel()
		sent := 0
		for r := range ch {
			if sent >= b.after {
				b.cuts.Add(1)
				if b.cut != nil {
					b.once.Do(func() { close(b.cut) })
				}
				cancel()
				for range ch { // drain the canceled remainder
				}
				return
			}
			select {
			case out <- r:
				sent++
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// TestStreamSurvivesTruncatingBackend: shards lost to a backend whose
// streams keep dying are re-dispatched from their watermark on the
// healthy backend, and the merged stream still matches the
// single-backend one exactly. The healthy backend is held until the
// first cut: otherwise it can finish every shard, speculative copies
// included, before the flaky one gets to cut anything. Without
// speculation every shard has its one runner before the first cut, so
// that cut must requeue; with speculation the solid backend may
// instead speculate or steal the cut shards, so only the stream and
// the cut are asserted there.
func TestStreamSurvivesTruncatingBackend(t *testing.T) {
	cfg := streamScenario()
	want := singleBackendStream(t, cfg)
	for _, tc := range []struct {
		name         string
		speculate    bool
		wantRequeues bool
	}{
		{"speculation=off", false, true},
		{"speculation=on", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			flaky := &truncatingBackend{inner: client.Local(newSession(t)), after: 2, cut: make(chan struct{})}
			if err := reg.Add("flaky", flaky); err != nil {
				t.Fatal(err)
			}
			if err := reg.Add("solid", &gatedBackend{inner: client.Local(newSession(t)), open: flaky.cut}); err != nil {
				t.Fatal(err)
			}
			coord, err := New(reg, WithShards(4), WithSpeculation(tc.speculate))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := coord.Stream(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStream(t, drainStream(t, ch), want)
			if flaky.cuts.Load() == 0 {
				t.Error("the flaky backend never actually cut a stream")
			}
			if st := coord.Stats(); tc.wantRequeues && st.Requeues == 0 {
				t.Errorf("stats = %+v; truncated streams should have requeued shards", st)
			}
		})
	}
}

// hangingBackend delivers `after` results per stream and then goes
// silent without closing — a wedged daemon.
type hangingBackend struct {
	inner client.Backend
	after int
}

func (b *hangingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	return b.inner.Evaluate(ctx, reqs)
}

func (b *hangingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	ch, err := b.inner.Stream(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make(chan actuary.Result)
	go func() {
		defer close(out)
		sent := 0
		for r := range ch {
			if sent >= b.after {
				break
			}
			select {
			case out <- r:
				sent++
			case <-ctx.Done():
				return
			}
		}
		<-ctx.Done() // wedge until canceled
	}()
	return out, nil
}

// TestStreamSpeculationRescuesWedgedShard: a shard wedged on a silent
// backend is speculatively re-executed from its watermark by the idle
// backend, rivals' duplicate results are discarded at the admission
// watermark, and the merged stream is still exact.
func TestStreamSpeculationRescuesWedgedShard(t *testing.T) {
	cfg := streamScenario()
	want := singleBackendStream(t, cfg)
	reg := NewRegistry()
	if err := reg.Add("wedged", &hangingBackend{inner: client.Local(newSession(t)), after: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("solid", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	coord, err := New(reg, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := coord.Stream(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, drainStream(t, ch), want)
	if st := coord.Stats(); st.Speculations == 0 {
		t.Errorf("stats = %+v; rescuing a wedged shard should have speculated", st)
	}
}

// TestStreamLateJoiner: a backend added mid-stream joins the run and
// the merged output is unchanged.
func TestStreamLateJoiner(t *testing.T) {
	cfg := streamScenario()
	want := singleBackendStream(t, cfg)
	reg := NewRegistry()
	if err := reg.Add("first", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	var joins atomic.Int32
	coord, err := New(reg, WithShards(4), WithEvents(func(ev Event) {
		if ev.Kind == "join" {
			joins.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := coord.Stream(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []actuary.Result
	for r := range ch {
		if r.Index < 0 {
			t.Fatalf("stream failed in-band: %v", r.Err)
		}
		got = append(got, r)
		if len(got) == 1 {
			if err := reg.Add("late", client.Local(newSession(t))); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertSameStream(t, got, want)
	if joins.Load() == 0 {
		t.Error("the late backend never joined the run")
	}
}

// TestStreamCheckpointResume: a striped stream cut mid-run resumes
// from its FleetStreamCheckpoint — loaded back through the wire form —
// delivering exactly the remaining suffix, evaluating nothing from
// the delivered prefix, and carrying merged aggregators identical to
// a single-backend reduction.
func TestStreamCheckpointResume(t *testing.T) {
	cfg := streamScenario()
	want := singleBackendStream(t, cfg)
	total := len(want)
	cut := total / 3
	if cut == 0 {
		t.Fatal("reference stream too short to cut")
	}

	newCoord := func(sessions []*actuary.Session) *Coordinator {
		t.Helper()
		reg := NewRegistry()
		for i, s := range sessions {
			if err := reg.Add(fmt.Sprintf("local-%d", i), client.Local(s)); err != nil {
				t.Fatal(err)
			}
		}
		coord, err := New(reg, WithShards(5), WithSpeculation(false))
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	// First run: die after `cut` delivered results.
	var first []actuary.Result
	cutErr := errors.New("simulated coordinator death")
	cp, err := newCoord([]*actuary.Session{newSession(t), newSession(t)}).StreamCheckpointed(
		context.Background(), cfg, nil, 1, nil,
		func(r actuary.Result) error {
			if len(first) == cut {
				return cutErr
			}
			first = append(first, r)
			return nil
		})
	if !errors.Is(err, cutErr) {
		t.Fatalf("cut run returned %v, want the deliver error", err)
	}
	if cp == nil || cp.Merged.Next != cut {
		t.Fatalf("cut checkpoint stands at %v, want Next=%d", cp, cut)
	}

	// Round-trip the checkpoint through its wire form, as a killed
	// coordinator would.
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	if err := actuary.SaveCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	resume := new(actuary.FleetStreamCheckpoint)
	if err := actuary.LoadCheckpointFile(path, resume); err != nil {
		t.Fatal(err)
	}

	// Second run: fresh sessions so the evaluation count isolates what
	// the resumed run actually computed.
	sessions := []*actuary.Session{newSession(t), newSession(t)}
	var second []actuary.Result
	final, err := newCoord(sessions).StreamCheckpointed(
		context.Background(), cfg, resume, 3, nil,
		func(r actuary.Result) error {
			second = append(second, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, append(append([]actuary.Result{}, first...), second...), want)
	if final.Merged.Next != total {
		t.Errorf("final checkpoint Next = %d, want %d", final.Merged.Next, total)
	}

	// Zero re-evaluation: the resumed run evaluated exactly the
	// remaining suffix, nothing from the delivered prefix.
	var evaluated int64
	for _, s := range sessions {
		evaluated += s.Metrics().Requests()
	}
	if want := int64(total - cut); evaluated != want {
		t.Errorf("resumed run evaluated %d requests, want exactly %d (the undelivered suffix)", evaluated, want)
	}

	// The merged aggregators match a direct reduction of the stream.
	wantStats := actuary.StreamStats{}
	wantTop := actuary.NewCostTopK(DefaultStreamTopK)
	for _, r := range want {
		wantStats.Observe(r)
		wantTop.Observe(r)
	}
	if final.Merged.Stats == nil || *final.Merged.Stats != wantStats {
		t.Errorf("merged stats = %+v, want %+v", final.Merged.Stats, wantStats)
	}
	if !reflect.DeepEqual(final.Merged.TopK.Results(), wantTop.Results()) {
		t.Errorf("merged top-K diverged from a direct reduction")
	}
}

// TestStreamResumeMismatch: a checkpoint from a different scenario or
// striping is rejected, not silently merged.
func TestStreamResumeMismatch(t *testing.T) {
	cfg := streamScenario()
	coord, err := New(localRegistry(t, 1), WithShards(3), WithSpeculation(false))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := coord.StreamCheckpointed(context.Background(), cfg, nil, 1, nil,
		func(actuary.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Questions = []string{"total-cost"}
	if _, err := coord.StreamCheckpointed(context.Background(), other, cp, 1, nil,
		func(actuary.Result) error { return nil }); !errors.Is(err, actuary.ErrCheckpointMismatch) {
		t.Errorf("foreign-scenario resume returned %v, want ErrCheckpointMismatch", err)
	}

	wider, err := New(localRegistry(t, 1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wider.StreamCheckpointed(context.Background(), cfg, cp, 1, nil,
		func(actuary.Result) error { return nil }); !errors.Is(err, actuary.ErrCheckpointMismatch) {
		t.Errorf("shard-count-mismatched resume returned %v, want ErrCheckpointMismatch", err)
	}
}

// TestStreamRejectsSweepBest: aggregate questions are answered by
// every shard, so a striped stream cannot reproduce the
// single-backend stream and the scenario is rejected up front.
func TestStreamRejectsSweepBest(t *testing.T) {
	coord, err := New(localRegistry(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamScenario()
	cfg.Questions = []string{"sweep-best"}
	cfg.Systems = nil
	if _, err := coord.Stream(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "sweep") {
		t.Errorf("sweep-best scenario returned %v, want a striping rejection", err)
	}
}

// TestStreamRescueUnblocksHeadShard: with tiny windows, few workers
// and a backend that cannot hold a stream, the interleaver's head
// shard can end up with no runner while every worker is blocked on a
// full window. The rescue loop must yield a leading shard's execution
// so the head makes progress — without it this configuration
// deadlocks.
func TestStreamRescueUnblocksHeadShard(t *testing.T) {
	oldTick, oldWindow := streamRescueTick, streamWindow
	streamRescueTick, streamWindow = 2*time.Millisecond, 1
	defer func() { streamRescueTick, streamWindow = oldTick, oldWindow }()

	cfg := streamScenario()
	want := singleBackendStream(t, cfg)
	reg := NewRegistry()
	// A backend that cuts every stream immediately: it marks shards
	// tried without ever delivering, leaving them runnerless.
	if err := reg.Add("dead-air", &truncatingBackend{inner: client.Local(newSession(t))}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("solid", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	var yields atomic.Int32
	coord, err := New(reg,
		WithShards(4), WithSpeculation(false),
		WithEvents(func(ev Event) {
			if ev.Kind == "yield" {
				yields.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var got []actuary.Result
	var streamErr error
	go func() {
		defer close(done)
		ch, err := coord.Stream(context.Background(), cfg)
		if err != nil {
			streamErr = err
			return
		}
		for r := range ch {
			if r.Index < 0 {
				streamErr = r.Err
				return
			}
			got = append(got, r)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("striped stream deadlocked")
	}
	if streamErr != nil {
		t.Fatal(streamErr)
	}
	assertSameStream(t, got, want)
	t.Logf("rescue yields: %d", yields.Load())
}

// TestShardStateAdmission: the admission watermark discards rival
// duplicates and refuses gaps.
func TestShardStateAdmission(t *testing.T) {
	st := newShardState(4, 0, 10)
	ctx := context.Background()
	mk := func(i int) actuary.Result { return actuary.Result{Index: i, ID: fmt.Sprintf("r%d", i)} }
	if err := st.admit(ctx, mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.admit(ctx, mk(0)); err != nil { // rival duplicate
		t.Fatalf("duplicate admission errored: %v", err)
	}
	if got := st.resumePoint(); got != 1 {
		t.Fatalf("watermark = %d after a duplicate, want 1", got)
	}
	if err := st.admit(ctx, mk(2)); err == nil || !retryable(err) {
		t.Fatalf("gap admission returned %v, want a retryable transport error", err)
	}
	if err := st.admit(ctx, mk(1)); err != nil {
		t.Fatal(err)
	}
	r, ok := st.tryConsume()
	if !ok || r.Index != 0 || st.lead() != 1 {
		t.Fatalf("consume = %+v/%v, lead %d; want index 0, lead 1", r, ok, st.lead())
	}
}

// TestStreamCheckpointSaveFailure: a failing save ends the striped
// stream with an error wrapping the save error, and the returned
// checkpoint still accounts exactly for the results delivered.
func TestStreamCheckpointSaveFailure(t *testing.T) {
	coord, err := New(localRegistry(t, 2), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk full")
	saves, delivered := 0, 0
	cp, err := coord.StreamCheckpointed(context.Background(), streamScenario(), nil, 3,
		func(*actuary.FleetStreamCheckpoint) error {
			if saves++; saves == 2 {
				return errDisk
			}
			return nil
		},
		func(actuary.Result) error { delivered++; return nil })
	if !errors.Is(err, errDisk) {
		t.Fatalf("stream with a failing save returned %v, want it to wrap %v", err, errDisk)
	}
	if cp == nil || cp.Merged.Next != delivered || delivered != 6 {
		t.Fatalf("checkpoint after the failed save = %+v with %d delivered; want Next = delivered = 6", cp, delivered)
	}
}
