package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	actuary "chipletactuary"
	"chipletactuary/client"
)

// DefaultStreamWindow is the per-shard buffer of a striped stream:
// how many results a shard may run ahead of the merge point before
// its execution blocks. Together the windows are the high watermark
// of a run — memory stays bounded by shards x window however far the
// fastest backend pulls ahead.
const DefaultStreamWindow = 64

// DefaultStreamTopK bounds the merged CostTopK a striped stream
// carries in its checkpoint.
const DefaultStreamTopK = 5

// streamWindow is the per-shard buffer striped streams run with. A
// variable so tests can shrink it.
var streamWindow = DefaultStreamWindow

// streamRescueTick is how often a blocked interleaver checks that its
// head shard has a live execution, yielding a leading shard's worker
// to it when it does not. A variable so tests can tighten it.
var streamRescueTick = 50 * time.Millisecond

// Stream stripes one streamed scenario across the registry and returns
// the merged, index-ordered result stream. The scenario's own shard
// machinery does the partitioning (each shard streams the scenario
// with a distinct shard_index/shard_count), the shard-run engine
// drives the shards — health gating, work stealing, capped speculative
// re-execution, first-result-wins duplicate discard — and an ordered
// interleaver merges the per-shard streams back into the exact request
// order of a single-backend run, so merged output is byte-identical to
// streaming the unsharded scenario from one backend. WithShards sizes
// the striping as for SweepBest; WithStreamTopK bounds the merged
// aggregators of StreamCheckpointed.
//
// Evaluation failures arrive in-band as Results with Err set, exactly
// as in a single-backend run; a run-level failure (scheduling
// exhausted, context canceled) is delivered as a final Result with
// Index -1 before the channel closes. Cancel ctx to abandon the
// stream.
//
// The scenario must not carry its own shard spec or resume field —
// striping derives shard specs itself, and resumption goes through
// StreamCheckpointed.
func (c *Coordinator) Stream(ctx context.Context, cfg actuary.ScenarioConfig) (<-chan actuary.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n, plan, err := c.planStream(cfg)
	if err != nil {
		return nil, err
	}
	out := make(chan actuary.Result)
	go func() {
		defer close(out)
		deliver := func(r actuary.Result) error {
			select {
			case out <- r:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		_, err := c.runStream(ctx, cfg, n, plan, nil, 0, nil, deliver)
		if err != nil && ctx.Err() == nil {
			select {
			case out <- actuary.Result{Index: -1, Err: err}:
			case <-ctx.Done():
			}
		}
	}()
	return out, nil
}

// StreamCheckpointed streams the striped scenario through deliver,
// checkpointing progress. Shard streams resume by index: a shard lost
// to a dead backend is reopened elsewhere at its current watermark,
// and a killed coordinator resumes from its FleetStreamCheckpoint. The
// checkpoint's global cursor advances only after deliver returns, so
// on resume no delivered result is ever re-evaluated: each shard's
// stream reopens at its saved watermark. save (may be nil) runs every
// `every` delivered results and once more at the end; a save error
// ends the run. Callers persisting the delivered output should flush
// it inside save before writing the checkpoint, so the cursor never
// runs ahead of durable output. resume is a checkpoint from a prior
// run of the same scenario over the same shard count, or nil to start
// fresh. The returned checkpoint reflects all delivered progress even
// on error.
func (c *Coordinator) StreamCheckpointed(ctx context.Context, cfg actuary.ScenarioConfig, resume *actuary.FleetStreamCheckpoint, every int, save func(*actuary.FleetStreamCheckpoint) error, deliver func(actuary.Result) error) (*actuary.FleetStreamCheckpoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if deliver == nil {
		return nil, fmt.Errorf("fleet: StreamCheckpointed needs a deliver callback")
	}
	n, plan, err := c.planStream(cfg)
	if err != nil {
		return nil, err
	}
	return c.runStream(ctx, cfg, n, plan, resume, every, save, deliver)
}

// planStream sizes the striping and compiles the owner plan, rejecting
// scenarios a striped stream cannot reproduce.
func (c *Coordinator) planStream(cfg actuary.ScenarioConfig) (int, *actuary.StreamShardPlan, error) {
	if cfg.Resume != nil {
		return 0, nil, fmt.Errorf("fleet: scenario %q carries its own resume field; resume a striped stream from a FleetStreamCheckpoint instead", cfg.Name)
	}
	n, err := c.shardCount()
	if err != nil {
		return 0, nil, err
	}
	plan, err := cfg.PlanStreamShards(n)
	if err != nil {
		return 0, nil, err
	}
	return n, plan, nil
}

// shardState is one shard's slice of a striped stream: a bounded
// in-order buffer between that shard's executions (producers) and the
// interleaver (consumer). enq is the admission watermark — the next
// shard-local index the stream will accept — which doubles as the
// dedup line for speculative rivals and the resume point for
// re-dispatched executions. con counts results the interleaver has
// consumed; enq-con is the shard's buffered lead.
type shardState struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []actuary.Result // FIFO ring
	head     int
	n        int
	enq      int
	con      int
	total    int
	dead     bool // run over; wake everyone
}

func newShardState(window, start, total int) *shardState {
	st := &shardState{buf: make([]actuary.Result, window), enq: start, con: start, total: total}
	st.notFull.L = &st.mu
	st.notEmpty.L = &st.mu
	return st
}

// resumePoint is the shard-local index a fresh execution should
// stream from.
func (st *shardState) resumePoint() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.enq
}

// lead is how far admission has run ahead of consumption.
func (st *shardState) lead() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.enq - st.con
}

// kill marks the run over and wakes blocked producers and the
// consumer.
func (st *shardState) kill() {
	st.mu.Lock()
	st.dead = true
	st.notFull.Broadcast()
	st.notEmpty.Broadcast()
	st.mu.Unlock()
}

// admit offers one result from an execution's stream. Results below
// the watermark are duplicates from speculative overlap and are
// dropped silently; the result at the watermark is buffered, blocking
// while the window is full; a result above the watermark means the
// serving backend skipped ground it should have covered — the stream
// is broken and the execution must be retried.
func (st *shardState) admit(execCtx context.Context, r actuary.Result) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.dead {
			return context.Canceled
		}
		if err := execCtx.Err(); err != nil {
			return err
		}
		if r.Index < st.enq {
			return nil // duplicate of an already-admitted result
		}
		if r.Index > st.enq {
			return transportError(fmt.Errorf("fleet: shard stream jumped from index %d to %d", st.enq, r.Index))
		}
		if st.n < len(st.buf) {
			break
		}
		st.notFull.Wait()
	}
	st.buf[(st.head+st.n)%len(st.buf)] = r
	st.n++
	st.enq++
	st.notEmpty.Broadcast()
	return nil
}

// tryConsume pops the next in-order result without blocking.
func (st *shardState) tryConsume() (actuary.Result, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.n == 0 {
		return actuary.Result{}, false
	}
	return st.popLocked(), true
}

// consume blocks for the next in-order result; false means the run
// died first. Buffered results stay consumable after death — they are
// valid, and draining them lets a failing checkpointed run save the
// most progress possible.
func (st *shardState) consume() (actuary.Result, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.n == 0 {
		if st.dead {
			return actuary.Result{}, false
		}
		st.notEmpty.Wait()
	}
	return st.popLocked(), true
}

func (st *shardState) popLocked() actuary.Result {
	r := st.buf[st.head]
	st.buf[st.head] = actuary.Result{}
	st.head = (st.head + 1) % len(st.buf)
	st.n--
	st.con++
	st.notFull.Broadcast()
	return r
}

// isCanceledResult reports an interruption artifact: a result whose
// error says the serving backend's stream was cut, not that the
// design point failed. Artifacts never appear in an uninterrupted
// single-backend stream, so they are filtered rather than merged.
func isCanceledResult(err error) bool {
	if err == nil {
		return false
	}
	if ae, ok := actuary.AsError(err); ok {
		return ae.Code == actuary.ErrCanceled
	}
	return false
}

// streamShard opens one shard's stream on one backend from the
// shard's current watermark and admits results until the stream ends.
// A nil error means the shard's full stream has been received
// (possibly jointly with rivals — admission dedups the overlap); any
// shortfall is a transport-classified error so the scheduler retries
// the shard elsewhere.
func streamShard(execCtx context.Context, b client.Backend, cfg actuary.ScenarioConfig, st *shardState) error {
	// A producer blocked on a full window wakes when its execution is
	// canceled (rival won, yield, run over), not only when space opens.
	stop := context.AfterFunc(execCtx, func() {
		st.mu.Lock()
		st.notFull.Broadcast()
		st.mu.Unlock()
	})
	defer stop()
	start := st.resumePoint()
	if start >= st.total {
		return nil // a rival already delivered everything
	}
	ch, err := b.Stream(execCtx, client.StreamRequest{Scenario: cfg, Resume: start, Ordered: true})
	if err != nil {
		return err
	}
	var broken error
	for r := range ch {
		if broken != nil {
			continue // drain so the producer can shut down
		}
		switch {
		case r.Index < 0:
			// the client's in-band transport failure
			broken = r.Err
			if broken == nil {
				broken = transportError(fmt.Errorf("fleet: stream delivered index %d with no error", r.Index))
			}
		case isCanceledResult(r.Err):
			broken = transportError(fmt.Errorf("fleet: shard stream interrupted: %w", r.Err))
		default:
			broken = st.admit(execCtx, r)
		}
	}
	if broken != nil {
		return broken
	}
	if err := execCtx.Err(); err != nil {
		return err
	}
	if at := st.resumePoint(); at < st.total {
		// The channel closed cleanly but short — a daemon killed
		// mid-stream closes its response body without an in-band error.
		return transportError(fmt.Errorf("fleet: shard stream ended at index %d of %d", at, st.total))
	}
	return nil
}

// runStream is the striped-stream run shared by Stream and
// StreamCheckpointed: per-shard windows fed by the shard-run engine,
// a rescue loop, and the interleaver.
func (c *Coordinator) runStream(ctx context.Context, cfg actuary.ScenarioConfig, n int, plan *actuary.StreamShardPlan, resume *actuary.FleetStreamCheckpoint, every int, save func(*actuary.FleetStreamCheckpoint) error, deliver func(actuary.Result) error) (*actuary.FleetStreamCheckpoint, error) {
	if every < 1 {
		every = 1
	}
	fingerprint, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	shardCfg := func(i int) actuary.ScenarioConfig {
		sc := cfg
		sc.ShardIndex, sc.ShardCount = i, n
		return sc
	}

	cp := resume
	if cp == nil {
		cp = &actuary.FleetStreamCheckpoint{
			Merged:  actuary.NewStreamCheckpoint(fingerprint, c.streamTopK),
			Shards:  n,
			Cursors: make([]actuary.StreamCheckpoint, n),
		}
		for i := range cp.Cursors {
			fp, err := shardCfg(i).Fingerprint()
			if err != nil {
				return nil, err
			}
			cp.Cursors[i] = actuary.StreamCheckpoint{Fingerprint: fp}
		}
	} else {
		if err := cp.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: %w: %w", actuary.ErrCheckpointMismatch, err)
		}
		if cp.Merged.Fingerprint != fingerprint {
			return nil, fmt.Errorf("fleet: %w: checkpoint fingerprint %.12s does not match scenario %q (%.12s)", actuary.ErrCheckpointMismatch, cp.Merged.Fingerprint, cfg.Name, fingerprint)
		}
		if cp.Shards != n {
			return nil, fmt.Errorf("fleet: %w: checkpoint striped the stream into %d shards, this coordinator into %d", actuary.ErrCheckpointMismatch, cp.Shards, n)
		}
		for i := range cp.Cursors {
			fp, err := shardCfg(i).Fingerprint()
			if err != nil {
				return nil, err
			}
			if cp.Cursors[i].Fingerprint != fp {
				return nil, fmt.Errorf("fleet: %w: cursor %d fingerprint %.12s does not match its shard scenario (%.12s)", actuary.ErrCheckpointMismatch, i, cp.Cursors[i].Fingerprint, fp)
			}
		}
	}

	// Replay the owner walk over the delivered prefix: the per-shard
	// cursors must add up exactly the way the owner sequence demands,
	// or the checkpoint belongs to a different stream.
	owners := plan.Owners()
	startNext := cp.Merged.Next
	if startNext > plan.Total() {
		return nil, fmt.Errorf("fleet: %w: checkpoint delivered %d of a %d-request stream", actuary.ErrCheckpointMismatch, startNext, plan.Total())
	}
	replayed := make([]int, n)
	for g := 0; g < startNext; g++ {
		o, ok := owners.Next()
		if !ok {
			return nil, fmt.Errorf("fleet: %w: owner walk ended at %d of a claimed %d-result prefix", actuary.ErrCheckpointMismatch, g, startNext)
		}
		replayed[o]++
	}
	for i := range replayed {
		if replayed[i] != cp.Cursors[i].Next {
			return nil, fmt.Errorf("fleet: %w: cursor %d stands at %d, the owner walk puts it at %d", actuary.ErrCheckpointMismatch, i, cp.Cursors[i].Next, replayed[i])
		}
	}

	states := make([]*shardState, n)
	for i := range states {
		states[i] = newShardState(streamWindow, cp.Cursors[i].Next, plan.ShardTotal(i))
	}

	// Unlike a sweep, a striped stream needs every shard streaming at
	// once — the interleaver consumes them in owner order — so each
	// backend runs enough workers to cover its share of the stripes.
	perMember := func() int {
		b := max(c.reg.Len(), 1)
		return (n + b - 1) / b
	}
	sched, stop := c.runShards(ctx, n, func(i int) bool { return cp.Cursors[i].Next >= plan.ShardTotal(i) }, perMember, "stream",
		func(execCtx context.Context, b client.Backend, shard int) (func() error, error) {
			return nil, streamShard(execCtx, b, shardCfg(shard), states[shard])
		})
	runCtx := sched.runCtx

	// Run death — failure or completion — reaches every blocked
	// producer and the interleaver through the shard states.
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		<-runCtx.Done()
		for _, st := range states {
			st.kill()
		}
	}()

	// Rescue loop: when the interleaver is blocked on a shard with no
	// live execution and no parked worker picks it up, yield the
	// execution with the largest buffered lead so a worker frees up
	// for the head shard. Without this, a full set of producers
	// blocked on full windows would deadlock against a starved head.
	var urgent atomic.Int64
	urgent.Store(-1)
	go func() {
		defer bg.Done()
		ticker := time.NewTicker(streamRescueTick)
		defer ticker.Stop()
		stalled := 0
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
			}
			o := int(urgent.Load())
			if o < 0 || sched.hasRunner(o) {
				stalled = 0
				continue
			}
			stalled++
			if stalled == 1 {
				// Give parked workers one tick to take the urgent
				// shard on their own.
				sched.cond.Broadcast()
				continue
			}
			if sched.yieldOne(o, func(i int) int { return states[i].lead() }) {
				c.emit(Event{Kind: "yield", Detail: fmt.Sprintf("paused a leading shard to unblock head shard %d", o)})
			}
			stalled = 0
		}
	}()

	// The interleaver: walk the owner sequence from the resume point,
	// pulling each global request's result from its owning shard and
	// rewriting shard-local indexes to global ones, so the merged
	// stream is byte-identical to a single-backend run.
	delivered := 0
	var runErr error
	for g := startNext; g < plan.Total(); g++ {
		o, ok := owners.Next()
		if !ok {
			runErr = fmt.Errorf("fleet: owner walk ended early at request %d of %d", g, plan.Total())
			break
		}
		st := states[o]
		r, got := st.tryConsume()
		if !got {
			sched.setUrgent(o)
			urgent.Store(int64(o))
			r, got = st.consume()
			urgent.Store(-1)
			sched.setUrgent(-1)
			if !got {
				runErr = sched.err()
				if runErr == nil {
					runErr = runCtx.Err()
				}
				break
			}
		}
		if r.Index != cp.Cursors[o].Next {
			runErr = fmt.Errorf("fleet: shard %d delivered index %d where %d was expected", o, r.Index, cp.Cursors[o].Next)
			break
		}
		r.Index = g
		if ae, isAE := actuary.AsError(r.Err); isAE && ae.Index >= 0 {
			e := *ae
			e.Index = g
			r.Err = &e
		}
		if err := deliver(r); err != nil {
			runErr = fmt.Errorf("fleet: delivering stream result %d: %w", g, err)
			break
		}
		if cp.Merged.TopK != nil {
			cp.Merged.TopK.Observe(r)
		}
		if cp.Merged.Pareto != nil {
			cp.Merged.Pareto.Observe(r)
		}
		if cp.Merged.Stats != nil {
			cp.Merged.Stats.Observe(r)
		}
		cp.Merged.Next = g + 1
		cp.Cursors[o].Next++
		delivered++
		if save != nil && delivered%every == 0 {
			if err := save(cp); err != nil {
				runErr = fmt.Errorf("fleet: saving fleet stream checkpoint: %w", err)
				break
			}
		}
	}
	if runErr != nil {
		sched.fail(runErr)
	}
	stop()
	bg.Wait()
	if runErr != nil {
		return cp, runErr
	}
	if save != nil && delivered%every != 0 {
		if err := save(cp); err != nil {
			return cp, fmt.Errorf("fleet: saving fleet stream checkpoint: %w", err)
		}
	}
	return cp, nil
}
