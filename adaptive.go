package actuary

import (
	"context"
	"fmt"
	"math"

	"chipletactuary/internal/explore"
	"chipletactuary/internal/sweep"
	"chipletactuary/search"
)

// Adaptive search: QuestionSearchBest answers the sweep-best question
// by walking stages planned by the search package instead of the whole
// grid. Each stage rides the machinery exhaustive sweeps already use —
// the same generator (with the stage's plan installed as a Select
// filter and the cost lower bound as a Bound filter), the same
// aggregators and ranking definitions, and for non-exact stages the
// same streaming Evaluate fan-out (slab dispatch, elastic workers) — so adaptive answers inherit every invariant the
// sweep path has: deterministic candidate numbering, exact per-shard
// accounting, checkpoint/resume byte-identity.

// SearchSpec configures an adaptive search (see the search package for
// the strategy semantics).
type SearchSpec = search.Spec

// SearchRefineSpec configures coarse-to-fine refinement.
type SearchRefineSpec = search.RefineSpec

// SearchHalvingSpec configures successive halving.
type SearchHalvingSpec = search.HalvingSpec

// SearchStats reports what an adaptive search walked and skipped.
type SearchStats = search.Stats

// SearchIncumbent is one step of the incumbent-best trajectory.
type SearchIncumbent = search.Incumbent

// SearchBest is the payload of QuestionSearchBest: the top-K cheapest
// points found plus the accounting that makes the savings checkable.
// Unlike SweepBest it carries no Pareto front or summary — those
// describe *every* feasible point, which an adaptive walk deliberately
// does not visit.
//
// With a pruning-only spec (no refinement, no halving) Top is byte-
// identical to the exhaustive QuestionSweepBest answer: lower-bound
// pruning only skips candidates that provably cannot enter the top-K.
// With refinement or halving, Top is the best of the visited subset —
// within the spec's tolerance on landscapes as smooth as the cost
// model's, but not guaranteed.
type SearchBest struct {
	// Top holds the K cheapest evaluated points, ascending total cost.
	Top []SweepPoint
	// Stats is the walk accounting: evaluated vs grid size, per-cause
	// prune counts, stages, incumbent trajectory.
	Stats SearchStats
}

// searchTrancheSize is how many surviving candidates a non-exact stage
// collects before fanning them out through Evaluate — large enough to
// fill the stream's slab pipeline, small enough to keep checkpoint
// cadence and budget cuts reasonably tight.
const searchTrancheSize = 256

// resolveSearchSpec applies the nil default: pruning only, which keeps
// the answer exhaustive-exact.
func resolveSearchSpec(req Request) SearchSpec {
	if req.Search == nil {
		return SearchSpec{Bound: true}
	}
	return *req.Search
}

// searchBest answers one QuestionSearchBest request.
func (s *Session) searchBest(ctx context.Context, req Request) (*SearchBest, error) {
	return s.searchBestWalk(ctx, req, nil, 0, nil)
}

// SearchBestCheckpointed answers one search-best request exactly like
// Evaluate would, but makes the search durable: roughly every `every`
// evaluated candidates — and at every stage boundary — it snapshots
// the planner, the stage cursor and the aggregator state into a
// SearchCheckpoint and hands it to save. A run killed at any point can
// be restarted with the last saved checkpoint as resume; it evaluates
// no candidate twice and returns a SearchBest byte-identical to an
// uninterrupted run's.
//
// resume nil starts fresh. A resume checkpoint must carry the
// fingerprint of this request (SearchFingerprint); anything else is
// rejected with an error wrapping ErrCheckpointMismatch. A save error
// aborts the search. The returned error taxonomy matches Evaluate's.
func (s *Session) SearchBestCheckpointed(ctx context.Context, req Request, resume *SearchCheckpoint, every int, save func(*SearchCheckpoint) error) (*SearchBest, error) {
	if req.Question == 0 {
		req.Question = QuestionSearchBest
	}
	if req.Question != QuestionSearchBest {
		return nil, fmt.Errorf("actuary: SearchBestCheckpointed wants a search-best request, not %v", req.Question)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return s.searchBestWalk(ctx, req, resume, every, save)
}

// searchGridDims returns the grid's axis lengths in odometer order.
func searchGridDims(g *SweepGrid) [search.NumAxes]int {
	return [search.NumAxes]int{
		len(g.Nodes), len(g.Schemes), len(g.Quantities), len(g.AreasMM2), len(g.Counts),
	}
}

// searchBestWalk is the one implementation behind searchBest and
// SearchBestCheckpointed.
func (s *Session) searchBestWalk(ctx context.Context, req Request, resume *SearchCheckpoint, every int, save func(*SearchCheckpoint) error) (*SearchBest, error) {
	if req.Grid == nil {
		return nil, fmt.Errorf("actuary: search-best request needs a Grid")
	}
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := validShardSpec(req.ShardIndex, req.ShardCount); err != nil {
		return nil, err
	}
	spec := resolveSearchSpec(req)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if every < 1 {
		every = searchTrancheSize
	}
	tranche := searchTrancheSize
	if save != nil && every < tranche {
		tranche = every
	}
	k := req.TopK
	if k < 1 {
		k = 1
	}
	// Same ranking definitions as the exhaustive path (merge.go): the
	// exactness claim of pruning-only search depends on it.
	top := newSweepTopK(k)
	front := newSweepPareto()
	var totals sweep.Stats
	var firstErr error
	firstCand := 0
	infeasible := 0
	evaluated := 0
	var trajectory []SearchIncumbent
	slabBest := make(map[int]float64)

	fingerprint := ""
	if resume != nil || save != nil {
		var err error
		if fingerprint, err = SearchFingerprint(req); err != nil {
			return nil, err
		}
	}
	var pl *search.Planner
	var resumeCursor *SweepCursor
	if resume != nil {
		if resume.Fingerprint != fingerprint {
			return nil, fmt.Errorf("actuary: %w: checkpoint fingerprint %.12s does not match search grid %q (%.12s)",
				ErrCheckpointMismatch, resume.Fingerprint, req.Grid.Name, fingerprint)
		}
		if resume.Planner == nil {
			return nil, fmt.Errorf("actuary: %w: search checkpoint carries no planner", ErrCheckpointMismatch)
		}
		pl = resume.Planner
		if err := pl.Validate(); err != nil {
			return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
		}
		if dims := searchGridDims(req.Grid); pl.Dims != dims {
			return nil, fmt.Errorf("actuary: %w: planner dims %v do not match grid %q axes %v",
				ErrCheckpointMismatch, pl.Dims, req.Grid.Name, dims)
		}
		if resume.Infeasible < 0 || resume.FirstFailureCandidate < 0 {
			return nil, fmt.Errorf("actuary: %w: checkpoint carries negative counters (%d infeasible, candidate %d)",
				ErrCheckpointMismatch, resume.Infeasible, resume.FirstFailureCandidate)
		}
		totals = resume.Totals
		infeasible = resume.Infeasible
		firstErr = resume.FirstFailure
		firstCand = resume.FirstFailureCandidate
		evaluated = totals.Generated + resume.Cursor.Stats.Generated
		seen := evaluated - infeasible
		if err := top.SetState(sweep.TopKState[SweepPoint]{K: k, Seen: seen, Items: resume.Top}); err != nil {
			return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
		}
		if err := front.SetState(sweep.ParetoState[SweepPoint]{Seen: seen, Front: resume.Pareto}); err != nil {
			return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
		}
		trajectory = resume.Trajectory
		for _, sb := range resume.SlabBest {
			slabBest[sb.Slab] = sb.Cost
		}
		if !pl.Done() {
			cur := resume.Cursor
			resumeCursor = &cur
		}
	} else {
		var err error
		if pl, err = search.New(spec, searchGridDims(req.Grid)); err != nil {
			return nil, err
		}
	}

	budgetLeft := func() int {
		if spec.Budget <= 0 {
			return math.MaxInt
		}
		return spec.Budget - evaluated
	}
	budgetHit := false

	snapshot := func(cur SweepCursor) *SearchCheckpoint {
		slabs := make([]SearchSlabScore, 0, len(slabBest))
		for i := range pl.Slabs {
			if c, ok := slabBest[i]; ok {
				slabs = append(slabs, SearchSlabScore{Slab: i, Cost: c})
			}
		}
		return &SearchCheckpoint{
			Fingerprint:           fingerprint,
			Planner:               pl,
			Cursor:                cur,
			Totals:                totals,
			Top:                   top.Sorted(),
			Pareto:                front.Front(),
			Infeasible:            infeasible,
			FirstFailure:          firstErr,
			FirstFailureCandidate: firstCand,
			SlabBest:              slabs,
			Trajectory:            trajectory,
		}
	}

	// observe folds one evaluated candidate into the aggregators;
	// err is the evaluation failure, nil on success.
	observe := func(cand int, p sweep.Point, tc TotalCost, evalErr error) {
		evaluated++
		if evalErr != nil {
			infeasible++
			if firstErr == nil {
				firstErr = evalErr
				firstCand = cand
			}
			return
		}
		sp := SweepPoint{ID: p.ID, Node: p.Node, Scheme: p.Scheme,
			AreaMM2: p.AreaMM2, K: p.K, Quantity: p.Quantity, Total: tc}
		top.Observe(sp)
		front.Observe(sp)
		if len(pl.Slabs) > 0 {
			if i := pl.SlabIndex(cand); i >= 0 {
				if c, ok := slabBest[i]; !ok || tc.Total() < c {
					slabBest[i] = tc.Total()
				}
			}
		}
	}

	for !pl.Done() {
		stage := pl.Stage()
		gen := req.Grid.Points(sweep.ReticleFit(), sweep.InterposerFit(s.params)).
			AbortWhen(func() bool { return ctx.Err() != nil })
		if req.ShardCount > 0 {
			gen.Shard(req.ShardIndex, req.ShardCount)
		}
		gen.Select(pl.Selector())
		if spec.Bound {
			switch {
			case stage.Running:
				// Exhaustive-exact stage: the threshold tightens as the
				// serial walk feeds the top-K, and skipping is sound at
				// every instant — a lower bound strictly above the K-th
				// best cost excludes the candidate even on ID ties.
				gen.Bound(func(p sweep.Point) bool {
					b, full := top.Bound()
					if !full {
						return true
					}
					lb, ok := s.ev.Cost.REFloor(p.System)
					return !ok || !(lb > b)
				})
			case stage.HasBound:
				// Staged walk: the threshold was frozen when the stage
				// was planned, so pruning is independent of evaluation
				// order within the stage — parallel fan-out and resume
				// see identical BoundPruned counts.
				b := stage.Bound
				gen.Bound(func(p sweep.Point) bool {
					lb, ok := s.ev.Cost.REFloor(p.System)
					return !ok || !(lb > b)
				})
			}
		}
		if resumeCursor != nil {
			if _, err := gen.Restore(*resumeCursor); err != nil {
				return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
			}
			resumeCursor = nil
		}
		lastSaved := gen.Cursor().Candidate
		exhausted := false

		if stage.Running {
			// Serial walk: the running bound threshold makes evaluation
			// order part of the answer's accounting, so this stage
			// evaluates inline, exactly like the exhaustive sweep walk.
			for budgetLeft() > 0 {
				p, ok := gen.Next()
				if !ok {
					exhausted = true
					break
				}
				tc, err := s.ev.Single(p.System, req.Policy)
				observe(gen.LastCandidate(), p, tc, err)
				if cur := gen.Cursor(); save != nil && cur.Candidate-lastSaved >= every {
					if err := save(snapshot(cur)); err != nil {
						return nil, fmt.Errorf("actuary: saving search checkpoint: %w", err)
					}
					lastSaved = cur.Candidate
				}
			}
		} else {
			// Staged walk: generation is serial (cheap), evaluation fans
			// out through the streaming pipeline in candidate order.
			points := make([]sweep.Point, 0, tranche)
			cands := make([]int, 0, tranche)
			reqs := make([]Request, 0, tranche)
			for {
				points, cands = points[:0], cands[:0]
				limit := tranche
				if b := budgetLeft(); b < limit {
					limit = b
				}
				for len(points) < limit {
					p, ok := gen.Next()
					if !ok {
						exhausted = true
						break
					}
					points = append(points, p)
					cands = append(cands, gen.LastCandidate())
				}
				if len(points) == 0 {
					break
				}
				reqs = reqs[:0]
				for _, p := range points {
					reqs = append(reqs, Request{ID: p.ID, Question: QuestionTotalCost,
						System: p.System, Policy: req.Policy})
				}
				for j, r := range s.Evaluate(ctx, reqs) {
					if isCanceled(r.Err) {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						return nil, context.Canceled
					}
					var tc TotalCost
					evalErr := error(nil)
					if r.Err != nil {
						// Store the underlying cause, as the serial path
						// does — the *Error wrapper belongs to the batch
						// API, not to first-failure accounting.
						evalErr = r.Err
						if e, ok := r.Err.(*Error); ok && e.Err != nil {
							evalErr = e.Err
						}
					} else {
						tc = *r.TotalCost
					}
					observe(cands[j], points[j], tc, evalErr)
				}
				if cur := gen.Cursor(); save != nil && cur.Candidate-lastSaved >= every {
					if err := save(snapshot(cur)); err != nil {
						return nil, fmt.Errorf("actuary: saving search checkpoint: %w", err)
					}
					lastSaved = cur.Candidate
				}
				if exhausted || budgetLeft() <= 0 {
					break
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		totals.Merge(gen.Stats())
		if !exhausted && budgetLeft() <= 0 {
			budgetHit = true
			break
		}

		// Stage complete: record the incumbent trajectory, let the
		// planner turn the stage's outcome into the next stage, and
		// make the transition durable.
		stageIdx := pl.StageIndex()
		if tops := top.Sorted(); len(tops) > 0 {
			inc := SearchIncumbent{Stage: stageIdx, ID: tops[0].ID, Cost: tops[0].Total.Total()}
			if len(trajectory) == 0 || trajectory[len(trajectory)-1].ID != inc.ID {
				trajectory = append(trajectory, inc)
			}
		}
		pl.Advance(searchFeedback(pl, spec, top, front, slabBest, req.Grid))
		slabBest = make(map[int]float64)
		if save != nil {
			if err := save(snapshot(SweepCursor{})); err != nil {
				return nil, fmt.Errorf("actuary: saving search checkpoint: %w", err)
			}
		}
	}

	stages := pl.StageIndex()
	if !pl.Done() {
		stages++ // the budget-cut stage was walked, just not completed
	}
	if top.Seen() == 0 && req.ShardCount == 0 && !budgetHit {
		// Unsharded and not budget-cut: an empty answer means every
		// candidate the search could reach was pruned or failed — the
		// same infeasibility contract as the exhaustive sweep. A shard
		// may legitimately own zero feasible candidates.
		err := fmt.Errorf("actuary: %w: no feasible point in search of grid %q (%d pruned, %d bound-pruned, %d infeasible)",
			explore.ErrInfeasible, req.Grid.Name, totals.Pruned, totals.BoundPruned, infeasible)
		if firstErr != nil {
			err = fmt.Errorf("%w; first failure: %w", err, firstErr)
		}
		return nil, err
	}
	return &SearchBest{
		Top: top.Sorted(),
		Stats: SearchStats{
			GridSize:        req.Grid.Size(),
			Evaluated:       evaluated,
			Infeasible:      infeasible,
			Pruned:          totals.Pruned,
			Deduped:         totals.Deduped,
			BoundPruned:     totals.BoundPruned,
			Stages:          stages,
			BudgetExhausted: budgetHit,
			Trajectory:      trajectory,
		},
	}, nil
}

// searchFeedback distills the aggregator state a completed stage left
// behind into the planner's input: the frozen admission bound, the
// refinement targets (incumbent best plus Pareto knees) as axis
// tuples, and the per-slab best sampled costs.
func searchFeedback(pl *search.Planner, spec SearchSpec,
	top *sweep.TopK[SweepPoint], front *sweep.Pareto[SweepPoint],
	slabBest map[int]float64, grid *SweepGrid) search.Feedback {
	var fb search.Feedback
	if b, ok := top.Bound(); ok {
		fb.HasBound, fb.Bound = true, b
	}
	if tops := top.Sorted(); len(tops) > 0 {
		if t, ok := searchAxisIndexes(grid, tops[0]); ok {
			fb.Targets = append(fb.Targets, t)
		}
		knees := 0
		if spec.Refine != nil {
			knees = spec.Refine.Knees
		}
		if knees > 0 {
			pts := front.Front()
			objectives := make([][2]float64, len(pts))
			for i, p := range pts {
				objectives[i] = [2]float64{p.Total.RE.Total(), p.Total.NRE.Total()}
			}
			for _, i := range search.Knees(objectives, knees) {
				if t, ok := searchAxisIndexes(grid, pts[i]); ok {
					fb.Targets = append(fb.Targets, t)
				}
			}
		}
	}
	if n := len(pl.Slabs); n > 0 {
		fb.SlabBest = make([]float64, n)
		for i := range fb.SlabBest {
			fb.SlabBest[i] = math.Inf(1)
			if c, ok := slabBest[i]; ok {
				fb.SlabBest[i] = c
			}
		}
	}
	return fb
}

// searchAxisIndexes recovers a sweep point's axis-index tuple from its
// axis values — the reverse of what the generator did when building
// it. Axis values are taken verbatim from the grid's slices, so the
// equality lookups are exact. Monolithic (k = 1) points are emitted at
// scheme index 0 whatever the grid's scheme axis, mirroring the
// generator's dedup rule.
func searchAxisIndexes(g *SweepGrid, p SweepPoint) ([search.NumAxes]int, bool) {
	var idx [search.NumAxes]int
	ok := true
	find := func(n int, eq func(int) bool) int {
		for i := 0; i < n; i++ {
			if eq(i) {
				return i
			}
		}
		ok = false
		return 0
	}
	idx[search.AxisNode] = find(len(g.Nodes), func(i int) bool { return g.Nodes[i] == p.Node })
	if p.K == 1 {
		idx[search.AxisScheme] = 0
	} else {
		idx[search.AxisScheme] = find(len(g.Schemes), func(i int) bool { return g.Schemes[i] == p.Scheme })
	}
	idx[search.AxisQuantity] = find(len(g.Quantities), func(i int) bool { return g.Quantities[i] == p.Quantity })
	idx[search.AxisArea] = find(len(g.AreasMM2), func(i int) bool { return g.AreasMM2[i] == p.AreaMM2 })
	idx[search.AxisCount] = find(len(g.Counts), func(i int) bool { return g.Counts[i] == p.K })
	return idx, ok
}
