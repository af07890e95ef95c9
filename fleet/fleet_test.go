package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipletactuary"
	"chipletactuary/client"
)

// testGrid exercises every accounting path: multi-scheme dedup of the
// k=1 twins, reticle pruning (860 mm² monolithic dies), and plain
// feasible points.
func testGrid() actuary.SweepGrid {
	return actuary.SweepGrid{
		Name:       "fleet",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   []float64{200, 500, 860},
		Counts:     []int{1, 2, 3, 4},
		Quantities: []float64{1_000_000},
		D2D:        actuary.D2DFraction(0.10),
	}
}

func newSession(t testing.TB) *actuary.Session {
	t.Helper()
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// singleProcessBest is the ground truth: the unsharded sweep-best
// answer of one local session.
func singleProcessBest(t testing.TB, req actuary.Request) *actuary.SweepBest {
	t.Helper()
	res := newSession(t).Evaluate(context.Background(), []actuary.Request{req})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.SweepBest
}

// assertSameBest checks a fleet answer against the single-process
// one: top-K and Pareto byte-identical, summary exact except Sum
// (floating-point reassociation), statistics and first failure exact.
func assertSameBest(t *testing.T, got, want *actuary.SweepBest) {
	t.Helper()
	if !reflect.DeepEqual(got.Top, want.Top) {
		t.Errorf("Top = %v\nwant %v", ids(got.Top), ids(want.Top))
	}
	if !reflect.DeepEqual(got.Pareto, want.Pareto) {
		t.Errorf("Pareto = %v\nwant %v", ids(got.Pareto), ids(want.Pareto))
	}
	gs, ws := got.Summary, want.Summary
	if gs.Count != ws.Count || gs.Min != ws.Min || gs.Max != ws.Max ||
		gs.MinID != ws.MinID || gs.MaxID != ws.MaxID {
		t.Errorf("Summary = %+v, want %+v", gs, ws)
	}
	if math.Abs(gs.Sum-ws.Sum) > 1e-9*math.Abs(ws.Sum) {
		t.Errorf("Summary.Sum = %v, want %v (beyond reassociation tolerance)", gs.Sum, ws.Sum)
	}
	if got.Pruned != want.Pruned || got.Deduped != want.Deduped || got.Infeasible != want.Infeasible {
		t.Errorf("stats = %d/%d/%d pruned/deduped/infeasible, want %d/%d/%d",
			got.Pruned, got.Deduped, got.Infeasible, want.Pruned, want.Deduped, want.Infeasible)
	}
	// The merged first failure is the globally first failing candidate,
	// rendered identically whether or not it crossed the wire.
	if (got.FirstFailure == nil) != (want.FirstFailure == nil) {
		t.Errorf("FirstFailure presence = %v, want %v", got.FirstFailure, want.FirstFailure)
	} else if want.FirstFailure != nil {
		if g, w := actuary.FailureCause(got.FirstFailure).Error(), actuary.FailureCause(want.FirstFailure).Error(); g != w {
			t.Errorf("FirstFailure = %q, want %q", g, w)
		}
		if got.FirstFailureCandidate != want.FirstFailureCandidate {
			t.Errorf("FirstFailureCandidate = %d, want %d", got.FirstFailureCandidate, want.FirstFailureCandidate)
		}
	}
}

func ids(pts []actuary.SweepPoint) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	return out
}

// fixedPool builds the coordinator explore -backends runs: the
// backends as a fixed registry, no health monitor, speculation off (a
// shard moves only after a completed transport failure), and one
// shard per backend unless shards > 0.
func fixedPool(t testing.TB, shards int, backends ...client.Backend) *Coordinator {
	t.Helper()
	reg := NewRegistry()
	for i, b := range backends {
		if err := reg.Add(fmt.Sprintf("backend-%d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	if shards < 1 {
		shards = len(backends)
	}
	coord, err := New(reg, WithShards(shards), WithSpeculation(false))
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// countingBackend counts Evaluate calls.
type countingBackend struct {
	inner client.Backend
	calls atomic.Int32
}

func (c *countingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	c.calls.Add(1)
	return c.inner.Evaluate(ctx, reqs)
}

func (c *countingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return c.inner.Stream(ctx, req)
}

// blockedBackend hangs every Evaluate until its context is canceled —
// a wedged daemon that accepted the connection and went silent.
type blockedBackend struct {
	calls atomic.Int32
}

func (b *blockedBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	b.calls.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *blockedBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return nil, errors.New("blocked backend cannot stream")
}

// TestFleetMatchesSingleProcess: the fleet scheduler — speculation
// on, over-partitioned — merges the exact single-process answer for
// any backend count.
func TestFleetMatchesSingleProcess(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	for _, backends := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("backends=%d", backends), func(t *testing.T) {
			reg := NewRegistry()
			for i := 0; i < backends; i++ {
				if err := reg.Add(fmt.Sprintf("local-%d", i), client.Local(newSession(t))); err != nil {
					t.Fatal(err)
				}
			}
			coord, err := New(reg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.SweepBest(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBest(t, got, want)
			st := coord.Stats()
			if st.Shards != DefaultOverPartition*backends {
				t.Errorf("Shards = %d, want %d", st.Shards, DefaultOverPartition*backends)
			}
			won := 0
			for _, bs := range st.Backends {
				won += bs.Shards
			}
			if won != st.Shards {
				t.Errorf("backends won %d shards of %d — a shard merged zero or twice", won, st.Shards)
			}
		})
	}
}

// TestFleetRescuesStraggler is the tentpole acceptance test: one
// backend wedges solid on its first shard, the healthy backend drains
// the rest and then speculatively re-executes the wedged shard. The
// wedged execution is canceled by the rival's win, and the answer
// stays byte-identical to the single-process sweep.
func TestFleetRescuesStraggler(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	reg := NewRegistry()
	wedged := &blockedBackend{}
	if err := reg.Add("wedged", wedged); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("healthy", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	kinds := map[string]int{}
	coord, err := New(reg, WithShards(6),
		WithEvents(func(ev Event) { mu.Lock(); kinds[ev.Kind]++; mu.Unlock() }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := coord.SweepBest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if wedged.calls.Load() == 0 {
		t.Fatal("wedged backend was never dispatched; the test proves nothing")
	}
	st := coord.Stats()
	if st.Speculations == 0 || st.Steals == 0 {
		t.Errorf("stats = %+v, want at least one speculation and one steal", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds["speculate"] == 0 || kinds["steal"] == 0 {
		t.Errorf("events = %v, want speculate and steal", kinds)
	}
}

// TestFleetLateJoin: a sweep starts with only a wedged backend; a
// healthy backend added to the registry mid-run is admitted, drains
// everything (stealing the wedged shard), and the answer is exact.
func TestFleetLateJoin(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	reg := NewRegistry()
	wedged := &blockedBackend{}
	if err := reg.Add("wedged", wedged); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var joined []string
	coord, err := New(reg, WithShards(5), WithEvents(func(ev Event) {
		if ev.Kind == "join" {
			mu.Lock()
			joined = append(joined, ev.Backend)
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	late := &countingBackend{inner: client.Local(newSession(t))}
	result := make(chan error, 1)
	var got *actuary.SweepBest
	go func() {
		var err error
		got, err = coord.SweepBest(ctx, req)
		result <- err
	}()

	// Wait until the wedged backend has taken a shard, then join.
	for wedged.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := reg.Add("late", late); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if late.calls.Load() < 5 {
		t.Errorf("late joiner evaluated %d shards, want all 5", late.calls.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(joined, []string{"late"}) {
		t.Errorf("join events = %v, want [late]", joined)
	}
}

// TestFleetSkipsMarkedDownBackend: with a monitor attached, a backend
// that never answers a probe is marked down before it can waste a
// single shard; the sweep drains entirely through the healthy one.
func TestFleetSkipsMarkedDownBackend(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	reg := NewRegistry()
	dead := &probedBackend{inner: &blockedBackend{}, err: errors.New("connection refused")}
	if err := reg.Add("dead", dead); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("healthy", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(reg)
	if err != nil {
		t.Fatal(err)
	}
	mon.ProbeOnce(context.Background()) // marks dead down before the sweep
	coord, err := New(reg, WithMonitor(mon), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if calls := dead.inner.(*blockedBackend).calls.Load(); calls != 0 {
		t.Errorf("marked-down backend was dispatched %d shards", calls)
	}
	for _, bs := range coord.Stats().Backends {
		if bs.Name == "dead" && bs.State != "down" {
			t.Errorf("dead backend state %q, want down", bs.State)
		}
	}
}

// probedBackend pairs any backend with a scripted probe answer.
type probedBackend struct {
	inner client.Backend
	err   error
}

func (p *probedBackend) Probe(context.Context) (client.Status, error) {
	if p.err != nil {
		return client.Status{}, p.err
	}
	return client.Status{Source: "test"}, nil
}

func (p *probedBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	return p.inner.Evaluate(ctx, reqs)
}

func (p *probedBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return p.inner.Stream(ctx, req)
}

// TestFleetAllBackendsDown: every backend marked down leaves the run
// parked; the caller's deadline is what ends it.
func TestFleetAllBackendsDown(t *testing.T) {
	grid := testGrid()
	reg := NewRegistry()
	if err := reg.Add("dead", &probedBackend{inner: &blockedBackend{}, err: errors.New("refused")}); err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(reg)
	if err != nil {
		t.Fatal(err)
	}
	mon.ProbeOnce(context.Background())
	coord, err := New(reg, WithMonitor(mon))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = coord.SweepBest(ctx, actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline", err)
	}
}

// TestFleetCheckpointResumeNeverRedispatchesDrained: a run
// interrupted after some shards drained and restarted from its
// checkpoint dispatches only the undrained shards — speculation
// notwithstanding, and on the fixed pool explore -backends runs — and
// still merges the exact answer. The checkpoint takes the same wire
// round trip a real restart would.
func TestFleetCheckpointResumeNeverRedispatchesDrained(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4}
	want := singleProcessBest(t, req)
	const shards = 6

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"speculating", []Option{WithShards(shards)}},
		{"fixed", []Option{WithShards(shards), WithSpeculation(false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// First run: abort (via context cancel) once half the shards
			// have checkpointed.
			reg := NewRegistry()
			if err := reg.Add("one", client.Local(newSession(t))); err != nil {
				t.Fatal(err)
			}
			coord, err := New(reg, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var last *actuary.CoordinatorCheckpoint
			_, err = coord.SweepBestCheckpointed(ctx, req, nil, func(cp *actuary.CoordinatorCheckpoint) error {
				data, err := json.Marshal(cp)
				if err != nil {
					return err
				}
				back := new(actuary.CoordinatorCheckpoint)
				if err := json.Unmarshal(data, back); err != nil {
					return err
				}
				last = back
				if len(back.Completed) == shards/2 {
					cancel() // the "kill"
				}
				return nil
			})
			if err == nil {
				t.Fatal("interrupted run should fail with the cancellation")
			}
			if last == nil || len(last.Completed) < shards/2 || len(last.Completed) == shards {
				t.Fatalf("unusable checkpoint: %+v", last)
			}

			// Second run: a fresh coordinator (fresh session — a restarted
			// process) resumes from the checkpoint.
			reg2 := NewRegistry()
			counter := &shardCounter{inner: client.Local(newSession(t)), calls: map[int]int{}}
			if err := reg2.Add("two", counter); err != nil {
				t.Fatal(err)
			}
			coord2, err := New(reg2, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var final *actuary.CoordinatorCheckpoint
			got, err := coord2.SweepBestCheckpointed(context.Background(), req, last,
				func(cp *actuary.CoordinatorCheckpoint) error { final = cp; return nil })
			if err != nil {
				t.Fatal(err)
			}
			assertSameBest(t, got, want)
			counter.mu.Lock()
			defer counter.mu.Unlock()
			for _, sr := range last.Completed {
				if counter.calls[sr.Shard] != 0 {
					t.Errorf("drained shard %d re-dispatched %d times", sr.Shard, counter.calls[sr.Shard])
				}
			}
			total := 0
			for _, c := range counter.calls {
				total += c
			}
			if total != shards-len(last.Completed) {
				t.Errorf("resumed run evaluated %d shards, want %d", total, shards-len(last.Completed))
			}
			if final == nil || len(final.Completed) != shards {
				t.Errorf("final checkpoint = %+v, want all %d shards recorded", final, shards)
			}
		})
	}
}

// shardCounter counts evaluations per shard index.
type shardCounter struct {
	inner client.Backend
	mu    sync.Mutex
	calls map[int]int
}

func (b *shardCounter) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	b.mu.Lock()
	for _, r := range reqs {
		b.calls[r.ShardIndex]++
	}
	b.mu.Unlock()
	return b.inner.Evaluate(ctx, reqs)
}

func (b *shardCounter) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return b.inner.Stream(ctx, req)
}

func TestFleetRejectsBadInputs(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil registry accepted")
	}
	reg := NewRegistry()
	if _, err := New(reg, WithOverPartition(0)); err == nil {
		t.Error("zero over-partition factor accepted")
	}
	coord, err := New(reg)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid()
	if _, err := coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid}); err == nil {
		t.Error("sweep over an empty registry accepted")
	}
	if err := reg.Add("a", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	bad := []actuary.Request{
		{Question: actuary.QuestionSweepBest},                                            // no grid
		{Question: actuary.QuestionRE, Grid: &grid},                                      // wrong question
		{Question: actuary.QuestionSweepBest, Grid: &grid, ShardIndex: 1, ShardCount: 2}, // pre-sharded
		{Question: actuary.QuestionSweepBest, Grid: &actuary.SweepGrid{Name: "noaxes"}},  // invalid grid
	}
	for i, req := range bad {
		if _, err := coord.SweepBest(context.Background(), req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
}
