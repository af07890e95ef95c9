package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"chipletactuary"
	"chipletactuary/client"
	"chipletactuary/server"
)

// The tests in this file pin the fixed-pool configuration explore
// -backends runs (see fixedPool): fixed membership, no health monitor,
// no speculation, one shard per backend unless pinned. A shard moves
// to another backend only after a completed transport failure, and
// each backend tries a shard at most once.

// flakyBackend passes through okCalls evaluations, then fails every
// later one with a transport error — a backend dying mid-sweep. When
// failed is non-nil it is closed once the first failing call returns.
type flakyBackend struct {
	inner   client.Backend
	okCalls int32
	calls   atomic.Int32
	failed  chan struct{}
	once    sync.Once
}

func (f *flakyBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	if f.calls.Add(1) > f.okCalls {
		if f.failed != nil {
			f.once.Do(func() { close(f.failed) })
		}
		return nil, &actuary.Error{Code: actuary.ErrTransport, Index: -1, Question: -1,
			Err: errors.New("backend went away")}
	}
	return f.inner.Evaluate(ctx, reqs)
}

func (f *flakyBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return f.inner.Stream(ctx, req)
}

// gatedBackend holds every Evaluate and Stream until open is closed,
// so a test can make a failure on another backend happen before this
// one drains the shard queue — without it, which backend runs out of
// work first is a race.
type gatedBackend struct {
	inner client.Backend
	open  <-chan struct{}
}

func (g *gatedBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	select {
	case <-g.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Evaluate(ctx, reqs)
}

func (g *gatedBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	select {
	case <-g.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Stream(ctx, req)
}

// dyingBackend lets its first Evaluate through, then kills the daemon
// so later calls fail with a real transport error. When failed is
// non-nil it is closed once the first call after the kill returns.
type dyingBackend struct {
	inner  client.Backend
	kill   func()
	calls  atomic.Int32
	failed chan struct{}
	once   sync.Once
}

func (d *dyingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	if d.calls.Add(1) == 1 {
		return d.inner.Evaluate(ctx, reqs)
	}
	d.kill()
	res, err := d.inner.Evaluate(ctx, reqs)
	if d.failed != nil {
		d.once.Do(func() { close(d.failed) })
	}
	return res, err
}

func (d *dyingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return d.inner.Stream(ctx, req)
}

// daemon serves a fresh session over real HTTP and returns a client
// dialed to it.
func daemon(t *testing.T) (*httptest.Server, client.Backend) {
	t.Helper()
	ts := httptest.NewServer(server.New(newSession(t)).Handler())
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return ts, c
}

// TestCoordinatorMatchesSingleProcess: the fixed pool explore
// -backends runs merges the exact single-process answer for any
// backend count, with one shard per backend (shards=0) or a pinned
// count.
func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	for _, backends := range []int{1, 2, 3} {
		for _, shards := range []int{0, 5} { // 0: one per backend
			t.Run(fmt.Sprintf("backends=%d shards=%d", backends, shards), func(t *testing.T) {
				var bs []client.Backend
				for i := 0; i < backends; i++ {
					bs = append(bs, client.Local(newSession(t)))
				}
				coord := fixedPool(t, shards, bs...)
				got, err := coord.SweepBest(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBest(t, got, want)
				wantShards := shards
				if wantShards < 1 {
					wantShards = backends
				}
				st := coord.Stats()
				if st.Shards != wantShards {
					t.Errorf("Shards = %d, want %d", st.Shards, wantShards)
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
}

func TestCoordinatorRejectsBadRequests(t *testing.T) {
	grid := testGrid()
	coord := fixedPool(t, 0, client.Local(newSession(t)))
	cases := []actuary.Request{
		{Question: actuary.QuestionSweepBest},                                            // no grid
		{Question: actuary.QuestionRE, Grid: &grid},                                      // wrong question
		{Question: actuary.QuestionSweepBest, Grid: &grid, ShardIndex: 1, ShardCount: 2}, // pre-sharded
		{Question: actuary.QuestionSweepBest, Grid: &actuary.SweepGrid{Name: "noaxes"}},  // invalid grid
	}
	for i, req := range cases {
		if _, err := coord.SweepBest(context.Background(), req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
	if _, err := New(nil); err == nil {
		t.Error("coordinator built with no registry")
	}
}

func TestCoordinatorReassignsFailedShard(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	// Backend 1 dies after its first shard; its remaining shards must
	// drain through backend 0, which is held until the failure has
	// happened.
	flaky := &flakyBackend{inner: client.Local(newSession(t)), okCalls: 1, failed: make(chan struct{})}
	healthy := &gatedBackend{inner: client.Local(newSession(t)), open: flaky.failed}
	got, err := fixedPool(t, 6, healthy, flaky).SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if flaky.calls.Load() < 2 {
		t.Errorf("flaky backend was called %d times; the failure path never ran", flaky.calls.Load())
	}
}

func TestCoordinatorAllBackendsFail(t *testing.T) {
	grid := testGrid()
	coord := fixedPool(t, 0, &flakyBackend{}, &flakyBackend{})
	_, err := coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("coordinator succeeded with every backend dead")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrTransport {
		t.Errorf("error = %v, want a classified transport failure", err)
	}
}

func TestCoordinatorFatalEvaluationError(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"not-a-node"}
	calls := &countingBackend{inner: client.Local(newSession(t))}
	coord := fixedPool(t, 4, calls, client.Local(newSession(t)))
	_, err := coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("unknown node did not fail the distributed sweep")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("error = %v, want classified unknown-node", err)
	}
}

func TestCoordinatorInfeasibleGrid(t *testing.T) {
	// Every point pruned (a 5000 mm² interposer design): the merged
	// empty shards must reproduce the single-process ErrInfeasible.
	grid := actuary.SweepGrid{
		Name:       "nofit",
		Nodes:      []string{"5nm"},
		Schemes:    []actuary.Scheme{actuary.TwoPointFiveD},
		AreasMM2:   []float64{5000},
		Counts:     []int{4},
		Quantities: []float64{1e6},
	}
	coord := fixedPool(t, 0, client.Local(newSession(t)), client.Local(newSession(t)))
	_, err := coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("infeasible grid did not fail the distributed sweep")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrInfeasible {
		t.Errorf("error = %v, want classified infeasible", err)
	}
}

// TestCoordinatorOverDaemons is the end-to-end acceptance check: a
// sweep split across two actuaryd daemons (full HTTP wire protocol)
// returns top-K, Pareto front and summary identical to the
// single-process QuestionSweepBest answer, and the run survives one
// daemon dying mid-sweep.
func TestCoordinatorOverDaemons(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	ts1, c1 := daemon(t)
	defer ts1.Close()
	ts2, c2 := daemon(t)
	defer ts2.Close()
	got, err := fixedPool(t, 0, c1, c2).SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	// Daemon 3 dies mid-sweep: after its first answered shard, every
	// later call fails at the socket. The coordinator must reassign
	// the lost shards to daemon 1 — held until that failure has
	// happened — and still produce the exact answer.
	ts3, c3 := daemon(t)
	var once sync.Once
	dying := &dyingBackend{inner: c3, kill: func() { once.Do(ts3.Close) }, failed: make(chan struct{})}
	got, err = fixedPool(t, 6, &gatedBackend{inner: c1, open: dying.failed}, dying).
		SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if dying.calls.Load() < 2 {
		t.Errorf("dying daemon saw %d calls; the mid-sweep failure never happened", dying.calls.Load())
	}
}

func TestSweepBestScenario(t *testing.T) {
	cfg := actuary.ScenarioConfig{
		Version: 2, Name: "dist", Questions: []string{"sweep-best"},
		Sweeps: []actuary.SweepConfig{{
			Name: "dist", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
			D2DFraction: 0.10, Quantity: 1_000_000,
			AreasMM2: []float64{200, 500, 860}, Counts: []int{1, 2, 3, 4},
			TopK: 5,
		}},
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcessBest(t, reqs[0])
	coord := fixedPool(t, 0, client.Local(newSession(t)), client.Local(newSession(t)))
	got, err := coord.SweepBestScenario(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	// Scenarios that are not exactly one sweep-best are rejected.
	bad := cfg
	bad.Questions = []string{"total-cost"}
	if _, err := coord.SweepBestScenario(context.Background(), bad); err == nil {
		t.Error("non-sweep-best scenario accepted")
	}
	sharded := cfg
	sharded.ShardIndex, sharded.ShardCount = 0, 2
	if _, err := coord.SweepBestScenario(context.Background(), sharded); err == nil {
		t.Error("pre-sharded scenario accepted")
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	grid := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	coord := fixedPool(t, 0, client.Local(newSession(t)))
	if _, err := coord.SweepBest(ctx, actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid}); err == nil {
		t.Fatal("canceled context produced an answer")
	}
}

// TestCoordinatorTaxonomyOverDaemons: the unknown-node classification
// survives remote shards — the error code must not depend on whether
// backends are local or spoken to over the wire.
func TestCoordinatorTaxonomyOverDaemons(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"not-a-node"}
	ts, c := daemon(t)
	defer ts.Close()
	_, err := fixedPool(t, 2, c).SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("unknown node did not fail the remote distributed sweep")
	}
	if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("error = %v, want classified unknown-node (remote backends must match local)", err)
	}
}

// TestCoordinatorPartialFailureFirstFailure: a grid where one node
// axis value fails every evaluation. The merged answer must report the
// globally first failing candidate — the same failure, at the same
// grid position, as the single-process sweep — whether the shards ran
// locally or behind real daemons.
func TestCoordinatorPartialFailureFirstFailure(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"5nm", "not-a-node"}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	if want.FirstFailure == nil || want.Infeasible == 0 {
		t.Fatal("partial-failure grid produced no failures; the test grid is wrong")
	}

	local := fixedPool(t, 5, client.Local(newSession(t)), client.Local(newSession(t)))
	got, err := local.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	ts, c := daemon(t)
	defer ts.Close()
	got, err = fixedPool(t, 4, c).SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
}

// TestCoordinatorCheckpointRejects covers the coordinator resume
// guard rails: wrong fingerprint, wrong shard count, out-of-range
// recorded shards.
func TestCoordinatorCheckpointRejects(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4}
	fp, err := actuary.SweepFingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	coord := fixedPool(t, 3, client.Local(newSession(t)))
	ctx := context.Background()
	cases := map[string]*actuary.CoordinatorCheckpoint{
		"wrong fingerprint": {Fingerprint: "deadbeef", Shards: 3},
		"wrong shard count": {Fingerprint: fp, Shards: 4},
		"shard out of range": {Fingerprint: fp, Shards: 3,
			Completed: []actuary.ShardResult{{Shard: 7, Best: &actuary.SweepBest{}}}},
	}
	for name, cp := range cases {
		if _, err := coord.SweepBestCheckpointed(ctx, req, cp, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
			t.Errorf("%s: %v, want ErrCheckpointMismatch", name, err)
		}
	}
	// And a complete checkpoint needs no backend at all: resuming it
	// just merges.
	var final *actuary.CoordinatorCheckpoint
	got, err := coord.SweepBestCheckpointed(ctx, req, nil,
		func(cp *actuary.CoordinatorCheckpoint) error { final = cp; return nil })
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := fixedPool(t, 3, &flakyBackend{}).SweepBestCheckpointed(ctx, req, final, nil)
	if err != nil {
		t.Fatalf("resume of a complete checkpoint touched a backend: %v", err)
	}
	assertSameBest(t, resumed, got)
}

// TestCoordinatorCheckpointRejectsInMemoryCorruption checks that the
// resume path re-validates what the wire decoder would have: an
// in-memory checkpoint (never JSON round-tripped) with negative,
// duplicate or answerless shard entries is rejected, not merged.
func TestCoordinatorCheckpointRejectsInMemoryCorruption(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 2}
	fp, err := actuary.SweepFingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	coord := fixedPool(t, 3, client.Local(newSession(t)))
	empty := &actuary.SweepBest{}
	cases := map[string][]actuary.ShardResult{
		"negative shard":  {{Shard: -1, Best: empty}},
		"duplicate shard": {{Shard: 1, Best: empty}, {Shard: 1, Best: empty}},
		"missing answer":  {{Shard: 0, Best: nil}},
	}
	for name, completed := range cases {
		cp := &actuary.CoordinatorCheckpoint{Fingerprint: fp, Shards: 3, Completed: completed}
		if _, err := coord.SweepBestCheckpointed(context.Background(), req, cp, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
			t.Errorf("%s: %v, want ErrCheckpointMismatch", name, err)
		}
	}
}

// BenchmarkDistributedSweep compares one sweep-best over a ~50k-point
// grid fanned across 1, 2 and 4 local backends on the fixed pool. A
// sweep-best request walks its shard single-threaded, so the fan-out
// is what buys parallelism.
func BenchmarkDistributedSweep(b *testing.B) {
	areas, err := actuary.SweepAreaRange(100, 850, 5)
	if err != nil {
		b.Fatal(err)
	}
	grid := actuary.SweepGrid{
		Name:       "bench",
		Nodes:      []string{"5nm", "7nm", "12nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   areas,
		Counts:     []int{1, 2, 3, 4, 5, 6, 7, 8},
		Quantities: []float64{1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7},
		D2D:        actuary.D2DFraction(0.10),
	}
	if got := grid.Size(); got < 50_000 {
		b.Fatalf("benchmark grid has %d points, want ≥ 50k", got)
	}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 10}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			var bs []client.Backend
			for i := 0; i < n; i++ {
				bs = append(bs, client.Local(newSession(b)))
			}
			coord := fixedPool(b, 0, bs...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.SweepBest(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
