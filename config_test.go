package actuary

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestReadSystemConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error (from decode or Build)
	}{
		{"unknown field", `{"name":"x","scheme":"MCM","quantity":1,"bogus":1,
			"chiplets":[{"name":"c","node":"7nm","module_area_mm2":50,"count":1}]}`, "bogus"},
		{"not json", `{{`, "decoding"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadSystemConfig(strings.NewReader(c.json))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}

func TestSystemConfigBuildErrors(t *testing.T) {
	base := func() SystemConfig {
		return SystemConfig{
			Name: "x", Scheme: "MCM", Quantity: 1,
			Chiplets: []ChipletConfig{{Name: "c", Node: "7nm", ModuleAreaMM2: 50, Count: 2}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*SystemConfig)
		want   string
	}{
		{"missing name", func(c *SystemConfig) { c.Name = "" }, "needs a name"},
		{"bad scheme", func(c *SystemConfig) { c.Scheme = "stacked" }, "scheme"},
		{"bad flow", func(c *SystemConfig) { c.Flow = "chip-middle" }, "unknown flow"},
		{"no chiplets", func(c *SystemConfig) { c.Chiplets = nil }, "no chiplets"},
		{"zero count", func(c *SystemConfig) { c.Chiplets[0].Count = 0 }, "count 0"},
		{"negative count", func(c *SystemConfig) { c.Chiplets[0].Count = -2 }, "count -2"},
		{"d2d too high", func(c *SystemConfig) { c.Chiplets[0].D2DFraction = 1.0 }, "outside [0,1)"},
		{"d2d negative", func(c *SystemConfig) { c.Chiplets[0].D2DFraction = -0.1 }, "outside [0,1)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base()
			c.mutate(&cfg)
			if _, err := cfg.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("want error containing %q, got %v", c.want, err)
			}
		})
	}
	// The valid base must build, so the cases above fail for the
	// mutated reason and not something latent.
	if _, err := base().Build(); err != nil {
		t.Fatalf("base config should build: %v", err)
	}
	// chip-first is a valid flow.
	cf := base()
	cf.Flow = "chip-first"
	s, err := cf.Build()
	if err != nil {
		t.Fatalf("chip-first config should build: %v", err)
	}
	if s.Flow != ChipFirst {
		t.Errorf("flow %v, want chip-first", s.Flow)
	}
}

func TestReadPortfolioConfigErrors(t *testing.T) {
	if _, err := ReadPortfolioConfig(strings.NewReader(`{"name":"p","systemz":[]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadPortfolioConfig(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestPortfolioConfigBuildErrors(t *testing.T) {
	params := DefaultPackaging()
	if _, err := (PortfolioConfig{Name: "empty"}).Build(params); err == nil {
		t.Error("portfolio with no systems accepted")
	}
	// A broken member system surfaces its own error.
	bad := PortfolioConfig{Name: "p", Systems: []SystemConfig{{Name: "", Scheme: "MCM"}}}
	if _, err := bad.Build(params); err == nil {
		t.Error("broken member system accepted")
	}
	// An SoC member cannot share a multi-chip package.
	soc := PortfolioConfig{
		Name:          "p",
		SharedPackage: "shared",
		Systems: []SystemConfig{
			{Name: "solo", Scheme: "SoC", Quantity: 1,
				Chiplets: []ChipletConfig{{Name: "die", Node: "7nm", ModuleAreaMM2: 100, Count: 1}}},
		},
	}
	if _, err := soc.Build(params); err == nil || !strings.Contains(err.Error(), "share") {
		t.Errorf("SoC in a shared package accepted: %v", err)
	}
}

func TestPortfolioConfigSharedEnvelopeSizing(t *testing.T) {
	params := DefaultPackaging()
	chiplet := func(count int) []ChipletConfig {
		return []ChipletConfig{{Name: "X", Node: "7nm", ModuleAreaMM2: 200, D2DFraction: 0.10, Count: count}}
	}
	cfg := PortfolioConfig{
		Name:          "family",
		SharedPackage: "family-4x",
		Systems: []SystemConfig{
			{Name: "g1", Scheme: "MCM", Quantity: 1, Chiplets: chiplet(1)},
			{Name: "g4", Scheme: "MCM", Quantity: 1, Chiplets: chiplet(4)},
		},
	}
	systems, err := cfg.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	// Every member mounts the same envelope, sized for the largest
	// member: 4 dies × 200/(1−0.10) mm² (the paper's die = module/(1−f)
	// D2D model) × the spacing factor.
	wantFootprint := 4 * (200.0 / 0.9) * params.DieSpacingFactor
	for _, s := range systems {
		if s.Envelope == nil {
			t.Fatalf("system %q has no shared envelope", s.Name)
		}
		if s.Envelope != systems[0].Envelope {
			t.Errorf("system %q has its own envelope, want the shared one", s.Name)
		}
		if s.Envelope.Name != "family-4x" {
			t.Errorf("envelope name %q", s.Envelope.Name)
		}
		if math.Abs(s.Envelope.FootprintMM2-wantFootprint) > 1e-9 {
			t.Errorf("footprint %v, want %v", s.Envelope.FootprintMM2, wantFootprint)
		}
		if s.Envelope.InterposerAreaMM2 != 0 {
			t.Errorf("MCM-only family should not size an interposer, got %v",
				s.Envelope.InterposerAreaMM2)
		}
	}
	// A 2.5D member forces an interposer sized for the largest member.
	cfg.Systems[1].Scheme = "2.5D"
	systems, err = cfg.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	wantInterposer := 4 * (200.0 / 0.9) * params.InterposerFill
	if got := systems[0].Envelope.InterposerAreaMM2; math.Abs(got-wantInterposer) > 1e-9 {
		t.Errorf("interposer %v, want %v", got, wantInterposer)
	}
}

func TestReadScenarioConfig(t *testing.T) {
	v2 := `{
		"version": 2, "name": "s",
		"questions": ["total-cost", "optimal-chiplet-count"],
		"sweeps": [{"name": "sw", "node": "5nm", "scheme": "MCM", "d2d_fraction": 0.1,
			"quantity": 1000000, "areas_mm2": [400, 800], "counts": [1, 2]}]
	}`
	cfg, err := ReadScenarioConfig(strings.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	// 2 areas × 2 counts total-cost points + 2 optimal-k requests.
	if len(reqs) != 6 {
		t.Fatalf("got %d requests, want 6: %+v", len(reqs), reqs)
	}
	byID := make(map[string]Request, len(reqs))
	for _, r := range reqs {
		byID[r.ID] = r
	}
	if r, ok := byID["sw-a800-k2/total-cost"]; !ok || r.Question != QuestionTotalCost {
		t.Errorf("missing sweep point request: %+v", byID)
	}
	if r, ok := byID["sw-a800/optimal-chiplet-count"]; !ok || r.MaxK != 2 {
		t.Errorf("missing or mis-bounded optimal-k request: %+v", r)
	}
	// An explicit max_k bounds the sweep even below the largest count.
	cfg.Sweeps[0].MaxK = 1
	bounded, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bounded {
		if r.Question == QuestionOptimalChipletCount && r.MaxK != 1 {
			t.Errorf("explicit max_k ignored: got MaxK=%d", r.MaxK)
		}
	}
	if r := byID["sw-a400-k1/total-cost"]; r.System.Scheme != SoC {
		t.Errorf("k=1 sweep point should be monolithic, got %v", r.System.Scheme)
	}
	// The scenario policy reaches every per-system request.
	cfg.Policy = "per-instance"
	cfg.Sweeps[0].MaxK = 0
	reqs, err = cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Question == QuestionTotalCost && r.Policy != PerInstance {
			t.Errorf("request %q lost the scenario policy", r.ID)
		}
	}
}

func TestReadScenarioConfigV1Fallback(t *testing.T) {
	v1 := `{"name":"legacy","scheme":"MCM","quantity":1000,
		"chiplets":[{"name":"c","node":"7nm","module_area_mm2":50,"count":2}]}`
	cfg, err := ReadScenarioConfig(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != 1 || len(cfg.Systems) != 1 || cfg.Systems[0].Name != "legacy" {
		t.Fatalf("v1 fallback mis-parsed: %+v", cfg)
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Question != QuestionTotalCost || reqs[0].ID != "legacy/total-cost" {
		t.Fatalf("v1 fallback requests: %+v", reqs)
	}
}

func TestScenarioConfigErrors(t *testing.T) {
	if _, err := ReadScenarioConfig(strings.NewReader(`{"version":3,"name":"x"}`)); err == nil {
		t.Error("unsupported version accepted")
	}
	if _, err := ReadScenarioConfig(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	sweep := SweepConfig{Name: "sw", Node: "5nm", Scheme: "MCM",
		Quantity: 1000, AreasMM2: []float64{400}, Counts: []int{2}}
	cases := []struct {
		name   string
		mutate func(*ScenarioConfig)
		want   string
	}{
		{"empty", func(c *ScenarioConfig) { c.Sweeps = nil }, "no systems and no sweeps"},
		{"bad question", func(c *ScenarioConfig) { c.Questions = []string{"why"} }, "unknown question"},
		{"bad policy", func(c *ScenarioConfig) { c.Policy = "communism" }, "unknown policy"},
		{"unnamed sweep", func(c *ScenarioConfig) { c.Sweeps[0].Name = "" }, "unnamed sweep"},
		{"no node", func(c *ScenarioConfig) { c.Sweeps[0].Node = "" }, "needs a node"},
		{"no areas", func(c *ScenarioConfig) { c.Sweeps[0].AreasMM2 = nil }, "areas_mm2"},
		{"bad area", func(c *ScenarioConfig) { c.Sweeps[0].AreasMM2 = []float64{-1} }, "non-positive area"},
		{"bad count", func(c *ScenarioConfig) { c.Sweeps[0].Counts = []int{0} }, "count 0"},
		{"bad d2d", func(c *ScenarioConfig) { c.Sweeps[0].D2DFraction = 1.5 }, "outside [0,1)"},
		{"bad quantity", func(c *ScenarioConfig) { c.Sweeps[0].Quantity = 0 }, "positive quantity"},
		{"bad scheme", func(c *ScenarioConfig) { c.Sweeps[0].Scheme = "tape" }, "scheme"},
		{"crossover bracket", func(c *ScenarioConfig) {
			c.Questions = []string{"area-crossover"}
		}, "lo_mm2 < hi_mm2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ScenarioConfig{Name: "x", Sweeps: []SweepConfig{sweep}}
			tc.mutate(&cfg)
			_, err := cfg.Requests()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestSweepConfigAxisCornerCases exercises the multi-axis schema's
// validation: empty merged axes, inverted or degenerate ranges, and
// conflicting singular/plural fields.
func TestSweepConfigAxisCornerCases(t *testing.T) {
	base := func() SweepConfig {
		return SweepConfig{Name: "sw", Node: "5nm", Scheme: "MCM",
			Quantity: 1000, AreasMM2: []float64{400}, Counts: []int{2}}
	}
	cases := []struct {
		name   string
		mutate func(*SweepConfig)
		want   string
	}{
		{"no node axis", func(s *SweepConfig) { s.Node = ""; s.Nodes = nil }, "needs a node"},
		{"both node and nodes", func(s *SweepConfig) { s.Nodes = []string{"7nm"} }, "both node and nodes"},
		{"empty node entry", func(s *SweepConfig) { s.Node = ""; s.Nodes = []string{""} }, "empty node"},
		{"no scheme axis", func(s *SweepConfig) { s.Scheme = ""; s.Schemes = nil }, "needs a scheme"},
		{"both scheme and schemes", func(s *SweepConfig) { s.Schemes = []string{"InFO"} }, "both scheme and schemes"},
		{"bad plural scheme", func(s *SweepConfig) { s.Scheme = ""; s.Schemes = []string{"tape"} }, "unknown scheme"},
		{"empty area axis", func(s *SweepConfig) { s.AreasMM2 = nil }, "areas_mm2"},
		{"inverted area range", func(s *SweepConfig) {
			s.AreasMM2 = nil
			s.AreaRange = &AreaRangeConfig{LoMM2: 800, HiMM2: 200, StepMM2: 50}
		}, "inverted or non-positive area range"},
		{"zero area step", func(s *SweepConfig) {
			s.AreasMM2 = nil
			s.AreaRange = &AreaRangeConfig{LoMM2: 200, HiMM2: 800, StepMM2: 0}
		}, "step"},
		{"empty count axis", func(s *SweepConfig) { s.Counts = nil }, "counts"},
		{"inverted count range", func(s *SweepConfig) {
			s.Counts = nil
			s.CountRange = &CountRangeConfig{Lo: 6, Hi: 2}
		}, "inverted or sub-1 count range"},
		{"sub-1 count range", func(s *SweepConfig) {
			s.Counts = nil
			s.CountRange = &CountRangeConfig{Lo: 0, Hi: 3}
		}, "inverted or sub-1 count range"},
		{"no quantity axis", func(s *SweepConfig) { s.Quantity = 0 }, "positive quantity"},
		{"both quantity and quantities", func(s *SweepConfig) { s.Quantities = []float64{5} }, "both quantity and quantities"},
		{"bad plural quantity", func(s *SweepConfig) { s.Quantity = 0; s.Quantities = []float64{-2} }, "non-positive quantity"},
		{"soc multichip", func(s *SweepConfig) { s.Scheme = "SoC" }, "SoC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := base()
			tc.mutate(&sw)
			cfg := ScenarioConfig{Name: "x", Sweeps: []SweepConfig{sw}}
			_, err := cfg.Source()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
			// Requests must agree with Source on validation.
			if _, err := cfg.Requests(); err == nil {
				t.Error("Requests accepted what Source rejected")
			}
		})
	}
}

// TestSweepConfigRangeExpansion checks ranges merge with explicit
// lists into one deduplicated request stream.
func TestSweepConfigRangeExpansion(t *testing.T) {
	cfg := ScenarioConfig{
		Name: "x",
		Sweeps: []SweepConfig{{
			Name: "sw", Node: "5nm", Scheme: "MCM", Quantity: 1000,
			AreasMM2:   []float64{100, 200}, // 200 overlaps the range: deduplicated
			AreaRange:  &AreaRangeConfig{LoMM2: 200, HiMM2: 400, StepMM2: 100},
			Counts:     []int{1, 2},
			CountRange: &CountRangeConfig{Lo: 2, Hi: 3},
		}},
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	// 4 distinct areas (100, 200, 300, 400) × 3 distinct counts.
	if len(reqs) != 12 {
		t.Fatalf("got %d requests, want 12", len(reqs))
	}
	ids := make(map[string]bool)
	for _, r := range reqs {
		if ids[r.ID] {
			t.Fatalf("duplicate request ID %q from overlapping axes", r.ID)
		}
		ids[r.ID] = true
	}
	wantIDs := map[string]bool{
		"sw-a100-k1/total-cost": true, "sw-a400-k3/total-cost": true,
		"sw-a200-k2/total-cost": true, "sw-a300-k1/total-cost": true,
	}
	for _, r := range reqs {
		delete(wantIDs, r.ID)
	}
	if len(wantIDs) != 0 {
		t.Errorf("missing request IDs: %v", wantIDs)
	}
}

// TestScenarioMultiAxisSweep checks multi-valued node/scheme axes
// label every request unambiguously.
func TestScenarioMultiAxisSweep(t *testing.T) {
	cfg := ScenarioConfig{
		Name:      "x",
		Questions: []string{"total-cost", "optimal-chiplet-count", "area-crossover"},
		Sweeps: []SweepConfig{{
			Name: "ms", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
			Quantity: 1000, AreasMM2: []float64{400}, Counts: []int{1, 2},
			LoMM2: 100, HiMM2: 900,
		}},
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range reqs {
		if seen[r.ID] {
			t.Fatalf("duplicate request ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	// 2 nodes × 2 schemes × 1 area × 2 counts total-cost points minus
	// the 2 deduplicated monolithic twins (k=1 is scheme-independent),
	// 4 optimal-chiplet-count combos, 4 area-crossover combos (k=2
	// only).
	if len(reqs) != 6+4+4 {
		t.Errorf("got %d requests, want 14", len(reqs))
	}
	for _, want := range []string{
		"ms-5nm-SoC-a400-k1/total-cost",
		"ms-7nm-2.5D-a400-k2/total-cost",
		"ms-5nm-MCM-a400/optimal-chiplet-count",
		"ms-7nm-MCM-k2/area-crossover",
	} {
		if !seen[want] {
			t.Errorf("missing request %q", want)
		}
	}
}

// TestScenarioAllPointsPrunedErrors checks a prune-enabled sweep whose
// every point is infeasible errors instead of silently materializing
// an empty batch.
func TestScenarioAllPointsPrunedErrors(t *testing.T) {
	cfg := ScenarioConfig{
		Name: "x",
		Sweeps: []SweepConfig{{
			Name: "sw", Node: "5nm", Scheme: "MCM", Quantity: 1000,
			AreasMM2: []float64{2000}, Counts: []int{1}, Prune: true, // over-reticle monolith
		}},
	}
	if _, err := cfg.Requests(); err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Errorf("all-pruned scenario accepted: %v", err)
	}
	// Without pruning the point streams through and fails (or not) at
	// evaluation instead.
	cfg.Sweeps[0].Prune = false
	reqs, err := cfg.Requests()
	if err != nil || len(reqs) != 1 {
		t.Errorf("unpruned scenario: %d requests, %v", len(reqs), err)
	}
}

// TestScenarioSharding checks that the shard streams of a scenario
// partition the unsharded request stream: every per-point and derived
// request is owned by exactly one shard, while the sweep-best question
// is answered once per shard with the spec stamped on.
func TestScenarioSharding(t *testing.T) {
	cfg := ScenarioConfig{
		Name:      "x",
		Questions: []string{"total-cost", "optimal-chiplet-count", "area-crossover", "crossover-quantity", "sweep-best"},
		Systems: []SystemConfig{{
			Name: "epyc-ish", Scheme: "MCM", Quantity: 1e6,
			Chiplets: []ChipletConfig{{Name: "d", Node: "7nm", ModuleAreaMM2: 80, Count: 4}},
		}},
		Sweeps: []SweepConfig{{
			Name: "ms", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
			Quantity: 1000, AreasMM2: []float64{300, 400}, Counts: []int{1, 2, 3},
			LoMM2: 100, HiMM2: 900, TopK: 2,
		}},
	}
	whole, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := make(map[string]bool)
	for _, r := range whole {
		wantIDs[r.ID] = true
	}
	for n := 2; n <= 4; n++ {
		got := make(map[string]int)
		sweepBest := 0
		for i := 0; i < n; i++ {
			shard := cfg
			shard.ShardIndex, shard.ShardCount = i, n
			reqs, err := shard.Requests()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				if r.Question == QuestionSweepBest {
					sweepBest++
					if r.ShardIndex != i || r.ShardCount != n {
						t.Errorf("n=%d: sweep-best carries shard %d/%d, want %d/%d",
							n, r.ShardIndex, r.ShardCount, i, n)
					}
					continue
				}
				if r.ShardIndex != 0 || r.ShardCount != 0 {
					t.Errorf("n=%d: request %q carries a shard spec", n, r.ID)
				}
				got[r.ID]++
			}
		}
		if sweepBest != n {
			t.Errorf("n=%d: sweep-best asked %d times, want once per shard", n, sweepBest)
		}
		for id, c := range got {
			if c != 1 {
				t.Errorf("n=%d: request %q owned by %d shards", n, id, c)
			}
		}
		// Every non-sweep-best request of the unsharded stream is owned
		// by exactly one shard.
		for id := range wantIDs {
			if strings.Contains(id, "sweep-best") {
				continue
			}
			if got[id] != 1 {
				t.Errorf("n=%d: request %q missing from the shard union", n, id)
			}
		}
	}
}

func TestScenarioShardingRejectsBadSpec(t *testing.T) {
	base := ScenarioConfig{
		Name: "x",
		Sweeps: []SweepConfig{{
			Name: "sw", Node: "5nm", Scheme: "MCM", Quantity: 1000,
			AreasMM2: []float64{400}, Counts: []int{1, 2},
		}},
	}
	for _, bad := range [][2]int{{2, 2}, {-1, 2}, {1, 0}, {0, -3}} {
		cfg := base
		cfg.ShardIndex, cfg.ShardCount = bad[0], bad[1]
		if _, err := cfg.Source(); err == nil {
			t.Errorf("shard spec %d/%d accepted", bad[0], bad[1])
		}
	}
	// A shard owning no requests is a valid empty stream, not an error.
	cfg := base
	cfg.ShardIndex, cfg.ShardCount = 3, 4
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatalf("empty shard errored: %v", err)
	}
	if len(reqs) != 0 {
		t.Fatalf("shard 3/4 of a 4-point sweep owns %d requests", len(reqs))
	}
}

// planStreamTestScenario is a mixed scenario — explicit systems plus a
// multi-axis sweep, two streamable questions — used by the stream-shard
// plan tests.
func planStreamTestScenario() ScenarioConfig {
	return ScenarioConfig{
		Version:   2,
		Name:      "plan",
		Questions: []string{"total-cost", "optimal-chiplet-count"},
		Systems: []SystemConfig{{
			Name: "epyc-ish", Scheme: "MCM", Quantity: 1e6,
			Chiplets: []ChipletConfig{{Name: "d", Node: "7nm", ModuleAreaMM2: 80, Count: 4}},
		}},
		Sweeps: []SweepConfig{{
			Name: "ms", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
			Quantity: 1000, AreasMM2: []float64{300, 400}, Counts: []int{1, 2, 3},
		}},
	}
}

func TestPlanStreamShardsMatchesSource(t *testing.T) {
	cfg := planStreamTestScenario()
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	drain := func(c ScenarioConfig) []Result {
		t.Helper()
		src, err := c.Source()
		if err != nil {
			t.Fatal(err)
		}
		ch, err := s.Stream(context.Background(), src, StreamSpec{Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		var out []Result
		for r := range ch {
			out = append(out, r)
		}
		return out
	}
	full := drain(cfg)
	if len(full) == 0 {
		t.Fatal("empty reference stream")
	}
	for n := 1; n <= 4; n++ {
		plan, err := cfg.PlanStreamShards(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if plan.Count() != n {
			t.Fatalf("n=%d: plan counts %d shards", n, plan.Count())
		}
		if plan.Total() != len(full) {
			t.Fatalf("n=%d: plan total %d, stream has %d results", n, plan.Total(), len(full))
		}
		// Replay the owner walk and collect each shard's global indexes.
		owners := plan.Owners()
		assigned := make([][]int, n)
		for g := 0; g < len(full); g++ {
			o, ok := owners.Next()
			if !ok {
				t.Fatalf("n=%d: owner walk ended at %d of %d", n, g, len(full))
			}
			if o < 0 || o >= n {
				t.Fatalf("n=%d: request %d owned by shard %d", n, g, o)
			}
			assigned[o] = append(assigned[o], g)
		}
		if _, ok := owners.Next(); ok {
			t.Fatalf("n=%d: owner walk overruns the plan total", n)
		}
		sum := 0
		for i := 0; i < n; i++ {
			if plan.ShardTotal(i) != len(assigned[i]) {
				t.Fatalf("n=%d: shard %d totals %d, owner walk assigns %d",
					n, i, plan.ShardTotal(i), len(assigned[i]))
			}
			sum += plan.ShardTotal(i)
			// The shard's own stream must be exactly the assigned
			// subsequence of the full stream, re-indexed shard-locally.
			sc := cfg
			sc.ShardIndex, sc.ShardCount = i, n
			shard := drain(sc)
			if len(shard) != len(assigned[i]) {
				t.Fatalf("n=%d: shard %d streams %d results, plan says %d",
					n, i, len(shard), len(assigned[i]))
			}
			for j, g := range assigned[i] {
				if shard[j].Index != j {
					t.Errorf("n=%d shard %d: result %d carries index %d", n, i, j, shard[j].Index)
				}
				if shard[j].ID != full[g].ID {
					t.Errorf("n=%d shard %d: result %d is %q, owner walk maps it to %q",
						n, i, j, shard[j].ID, full[g].ID)
				}
			}
		}
		if sum != plan.Total() {
			t.Fatalf("n=%d: shard totals sum to %d, plan total %d", n, sum, plan.Total())
		}
	}
}

func TestPlanStreamShardsRejections(t *testing.T) {
	cfg := planStreamTestScenario()
	for _, bad := range []int{0, -1} {
		if _, err := cfg.PlanStreamShards(bad); err == nil {
			t.Errorf("count %d accepted", bad)
		}
	}
	sharded := cfg
	sharded.ShardIndex, sharded.ShardCount = 1, 2
	if _, err := sharded.PlanStreamShards(2); err == nil {
		t.Error("pre-sharded scenario accepted")
	}
	best := cfg
	best.Questions = []string{"sweep-best"}
	best.Systems = nil
	if _, err := best.PlanStreamShards(2); err == nil {
		t.Error("sweep-best scenario accepted")
	}
}

// TestSourceAndPlanRejectAlike feeds the same malformed scenarios to
// Source and PlanStreamShards: both validate through one compile step,
// so they must fail with the same error text.
func TestSourceAndPlanRejectAlike(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScenarioConfig)
		want   string
	}{
		{"empty", func(c *ScenarioConfig) { c.Systems, c.Sweeps = nil, nil }, "no systems and no sweeps"},
		{"bad policy", func(c *ScenarioConfig) { c.Policy = "communism" }, "unknown policy"},
		{"bad question", func(c *ScenarioConfig) { c.Questions = []string{"why"} }, "unknown question"},
		{"bad system", func(c *ScenarioConfig) { c.Systems = []SystemConfig{{Scheme: "MCM"}} }, "needs a name"},
		{"unnamed sweep", func(c *ScenarioConfig) { c.Sweeps = []SweepConfig{{Node: "5nm"}} }, "unnamed sweep"},
		{"bad area", func(c *ScenarioConfig) { c.Sweeps[0].AreasMM2 = []float64{-1} }, "non-positive area"},
		{"fits nothing", func(c *ScenarioConfig) {
			c.Systems, c.Questions, c.Sweeps[0].Counts = nil, []string{"crossover-quantity"}, []int{1}
		}, "fit nothing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := planStreamTestScenario()
			tc.mutate(&cfg)
			_, srcErr := cfg.Source()
			_, planErr := cfg.PlanStreamShards(2)
			if srcErr == nil || planErr == nil {
				t.Fatalf("accepted: Source %v, PlanStreamShards %v", srcErr, planErr)
			}
			if !strings.Contains(srcErr.Error(), tc.want) {
				t.Errorf("Source error %q lacks %q", srcErr, tc.want)
			}
			if srcErr.Error() != planErr.Error() {
				t.Errorf("Source says %q, PlanStreamShards says %q", srcErr, planErr)
			}
		})
	}
}
