package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chipletactuary"
	"chipletactuary/server"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// newTestServer builds a server on a fresh session plus an httptest
// front end.
func newTestServer(t *testing.T, sessOpts []actuary.Option, srvOpts ...server.Option) (*server.Server, *httptest.Server) {
	t.Helper()
	session, err := actuary.NewSession(sessOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(session, srvOpts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEvaluateEndpointMatchesLocalSession(t *testing.T) {
	_, ts := newTestServer(t, nil)
	reqs := []actuary.Request{
		{ID: "soc", Question: actuary.QuestionTotalCost,
			System: actuary.Monolithic("big", "5nm", 800, 2e6)},
		{ID: "opt", Question: actuary.QuestionOptimalChipletCount, Node: "7nm",
			ModuleAreaMM2: 700, MaxK: 4, Scheme: actuary.MCM,
			D2D: actuary.D2DFraction(0.10), Quantity: 2e6},
		{ID: "bad", Question: actuary.QuestionTotalCost,
			System: actuary.Monolithic("x", "2nm", 100, 1e6)},
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/evaluate", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := actuary.DecodeResults(data)
	if err != nil {
		t.Fatal(err)
	}

	local, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	want := local.Evaluate(context.Background(), reqs)
	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		wj, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Errorf("result %d differs:\nremote: %s\n local: %s", i, gj, wj)
		}
	}
	if got[2].Err == nil {
		t.Fatal("bad request should fail per-request")
	}
	if ae, ok := actuary.AsError(got[2].Err); !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("bad request error = %v, want unknown-node", got[2].Err)
	}
}

// TestStreamEndpointMatchesScenarioCLI is the end-to-end acceptance
// check: a scenario JSON posted to /v1/stream must yield byte-identical
// wire results (modulo ordering) to evaluating the same file locally —
// the exact path cmd/actuary -scenario takes (LoadScenarioConfig →
// Requests → Session.Evaluate) — and the stream must leave nonzero
// back-pressure samples in Session.Metrics.
func TestStreamEndpointMatchesScenarioCLI(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	scenario, err := os.ReadFile(filepath.Join("testdata", "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/stream", scenario)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	streamed := strings.Split(strings.TrimSpace(string(data)), "\n")

	// The CLI path: load the same file, materialize its requests,
	// evaluate on a local session, marshal each result to the wire.
	cfg, err := actuary.LoadScenarioConfig(filepath.Join("testdata", "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	local, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	results := local.Evaluate(context.Background(), reqs)
	want := make([]string, len(results))
	for i, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(line)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d lines, CLI path yields %d results", len(streamed), len(want))
	}
	sort.Strings(streamed)
	sort.Strings(want)
	for i := range want {
		if streamed[i] != want[i] {
			t.Errorf("stream and CLI results diverge:\nstream: %s\n   cli: %s", streamed[i], want[i])
		}
	}

	// Back-pressure instrumentation must have observed the stream.
	m := srv.Session().Metrics()
	if m.QueueDepthSamples == 0 || m.QueueDepthMax < 1 || m.MeanQueueDepth() <= 0 {
		t.Errorf("no queue-depth samples recorded: %+v", m)
	}
	if m.Utilization() <= 0 {
		t.Errorf("utilization = %v, want > 0 (busy %v, lifetime %v)",
			m.Utilization(), m.WorkerBusy, m.WorkerTime)
	}
	if m.Requests() != int64(len(want)) {
		t.Errorf("metrics saw %d requests, want %d", m.Requests(), len(want))
	}
}

// TestStreamGoldenFraming pins the NDJSON framing: one worker and an
// in-flight bound of one make emission order deterministic (generation
// order), so the whole response is reproducible byte for byte.
func TestStreamGoldenFraming(t *testing.T) {
	_, ts := newTestServer(t,
		[]actuary.Option{actuary.WithWorkers(1)}, server.WithInFlight(1))
	scenario, err := os.ReadFile(filepath.Join("testdata", "golden-scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/stream", scenario)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "stream.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("NDJSON framing drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestQuestionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/questions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []actuary.QuestionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(actuary.Questions()) {
		t.Errorf("%d questions advertised, want %d", len(infos), len(actuary.Questions()))
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Errorf("healthz: HTTP %d %s", resp.StatusCode, data)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Drive one batch so per-question series exist.
	body, _ := json.Marshal([]actuary.Request{{Question: actuary.QuestionTotalCost,
		System: actuary.Monolithic("m", "7nm", 400, 1e6)}})
	postJSON(t, ts.URL+"/v1/evaluate", body).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, series := range []string{
		"actuary_streams_started_total 1",
		"actuary_queue_depth_max 1",
		"actuary_worker_utilization",
		`actuary_requests_total{question="total-cost"} 1`,
		"actuary_workers",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output lacks %q:\n%s", series, text)
		}
	}
	if strings.Contains(text, "cache") {
		t.Errorf("metrics output still exports cache series:\n%s", text)
	}
}

func TestTransportErrors(t *testing.T) {
	_, ts := newTestServer(t, nil, server.WithMaxBodyBytes(256))

	resp := postJSON(t, ts.URL+"/v1/evaluate", []byte(`{not json`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code != "invalid-config" {
		t.Errorf("error body = %+v (%v), want invalid-config", eb, err)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/stream", []byte(`{"version":2,"name":"empty"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty scenario: HTTP %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/evaluate", bytes.Repeat([]byte(" "), 512))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	getResp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on evaluate: HTTP %d, want 405", getResp.StatusCode)
	}
	getResp.Body.Close()
}

// TestStreamClientDisconnect verifies an abandoned stream drains
// without wedging the session: a canceled request context stops
// generation and later streams still run.
func TestStreamClientDisconnect(t *testing.T) {
	srv, ts := newTestServer(t, []actuary.Option{actuary.WithWorkers(2)}, server.WithInFlight(2))
	big, err := json.Marshal(actuary.ScenarioConfig{
		Version: 2, Name: "big", Questions: []string{"total-cost"},
		Sweeps: []actuary.SweepConfig{{
			Name: "wide", Node: "7nm", Scheme: "MCM", D2DFraction: 0.10, Quantity: 2e6,
			AreaRange:  &actuary.AreaRangeConfig{LoMM2: 100, HiMM2: 800, StepMM2: 1},
			CountRange: &actuary.CountRangeConfig{Lo: 1, Hi: 8},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few lines, then walk away.
	buf := make([]byte, 4096)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The session must still serve a fresh batch afterwards.
	results := srv.Session().Evaluate(context.Background(), []actuary.Request{{
		Question: actuary.QuestionTotalCost, System: actuary.Monolithic("m", "7nm", 300, 1e6)}})
	if results[0].Err != nil {
		t.Fatalf("session wedged after disconnect: %v", results[0].Err)
	}
}

func TestWithInFlightBoundsStream(t *testing.T) {
	_, ts := newTestServer(t, []actuary.Option{actuary.WithWorkers(2)}, server.WithInFlight(1))
	scenario, err := os.ReadFile(filepath.Join("testdata", "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/stream", scenario)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines {
		var res actuary.Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
	}
	if len(lines) < 2 {
		t.Fatalf("expected several results, got %d", len(lines))
	}
}

// TestStreamEndpointHonorsShardSpec posts the same scenario once
// unsharded and once as two shards: the shard streams must partition
// the per-point results exactly (by ID) and each carry their own
// shard-stamped sweep-best answer that merges to the whole.
func TestStreamEndpointHonorsShardSpec(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scenario := map[string]any{
		"version": 2, "name": "shards",
		"questions": []string{"total-cost", "sweep-best"},
		"sweeps": []map[string]any{{
			"name": "g", "nodes": []string{"5nm", "7nm"}, "scheme": "MCM",
			"quantity": 1e6, "areas_mm2": []float64{300, 500}, "counts": []int{1, 2, 3},
			"d2d_fraction": 0.10, "top_k": 3,
		}},
	}
	drainIDs := func(extra map[string]any) (map[string]bool, []actuary.Result) {
		doc := map[string]any{}
		for k, v := range scenario {
			doc[k] = v
		}
		for k, v := range extra {
			doc[k] = v
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/stream", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		ids := make(map[string]bool)
		var sweepBests []actuary.Result
		dec := json.NewDecoder(resp.Body)
		for {
			var r actuary.Result
			if err := dec.Decode(&r); err != nil {
				break
			}
			if r.Err != nil {
				t.Fatalf("result %q failed: %v", r.ID, r.Err)
			}
			if r.SweepBest != nil {
				sweepBests = append(sweepBests, r)
				continue
			}
			if ids[r.ID] {
				t.Fatalf("duplicate streamed ID %q", r.ID)
			}
			ids[r.ID] = true
		}
		return ids, sweepBests
	}

	wholeIDs, wholeBest := drainIDs(nil)
	if len(wholeBest) != 1 {
		t.Fatalf("unsharded stream answered sweep-best %d times", len(wholeBest))
	}
	union := make(map[string]int)
	merger := actuary.NewSweepBestMerger(3)
	for i := 0; i < 2; i++ {
		ids, bests := drainIDs(map[string]any{"shard_index": i, "shard_count": 2})
		for id := range ids {
			union[id]++
		}
		if len(bests) != 1 {
			t.Fatalf("shard %d answered sweep-best %d times", i, len(bests))
		}
		merger.Add(bests[0].SweepBest)
	}
	if len(union) != len(wholeIDs) {
		t.Fatalf("shard union has %d per-point results, unsharded %d", len(union), len(wholeIDs))
	}
	for id, c := range union {
		if c != 1 || !wholeIDs[id] {
			t.Errorf("per-point result %q owned by %d shards", id, c)
		}
	}
	merged, err := merger.Result("g")
	if err != nil {
		t.Fatal(err)
	}
	want := wholeBest[0].SweepBest
	if len(merged.Top) != len(want.Top) {
		t.Fatalf("merged top has %d points, want %d", len(merged.Top), len(want.Top))
	}
	for i := range want.Top {
		if merged.Top[i].ID != want.Top[i].ID || merged.Top[i].Total.Total() != want.Top[i].Total.Total() {
			t.Errorf("merged top[%d] = %q, want %q", i, merged.Top[i].ID, want.Top[i].ID)
		}
	}
	if merged.Summary.Count != want.Summary.Count {
		t.Errorf("merged summary count %d, want %d", merged.Summary.Count, want.Summary.Count)
	}

	// A malformed shard spec is rejected at the transport boundary.
	body, _ := json.Marshal(map[string]any{
		"version": 2, "name": "bad", "shard_index": 2, "shard_count": 2,
		"sweeps": scenario["sweeps"],
	})
	resp := postJSON(t, ts.URL+"/v1/stream", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid shard spec got HTTP %d, want 400", resp.StatusCode)
	}
}

// TestStreamEndpointResume is the daemon-side acceptance test of the
// resume protocol: a scenario asking resumable delivery streams in
// source-index order, and a second request resuming from line K
// continues with exactly the lines the full response had after K —
// the NDJSON concatenation is byte-identical to the uninterrupted
// response.
func TestStreamEndpointResume(t *testing.T) {
	_, ts := newTestServer(t, []actuary.Option{actuary.WithWorkers(3)})
	cfg := actuary.ScenarioConfig{
		Name:      "resume",
		Questions: []string{"total-cost"},
		Sweeps: []actuary.SweepConfig{{
			Name: "sw", Nodes: []string{"5nm", "7nm"}, Scheme: "MCM", D2DFraction: 0.10,
			Quantity: 1_000_000, AreasMM2: []float64{200, 400, 600}, Counts: []int{1, 2, 3},
		}},
		Resume: &actuary.StreamResume{NextIndex: 0},
	}
	lines := func(next int) []string {
		t.Helper()
		cfg.Resume = &actuary.StreamResume{NextIndex: next}
		body, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/stream", body)
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		return strings.Split(strings.TrimSpace(string(data)), "\n")
	}
	full := lines(0)
	if len(full) < 4 {
		t.Fatalf("scenario streams only %d lines; the resume split needs more", len(full))
	}
	// Ordered delivery: line i is result index i.
	for i, line := range full {
		var r actuary.Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Index != i {
			t.Fatalf("line %d carries index %d — resumable streams must be ordered", i, r.Index)
		}
	}
	cut := len(full) / 2
	resumed := lines(cut)
	combined := append(append([]string(nil), full[:cut]...), resumed...)
	if strings.Join(combined, "\n") != strings.Join(full, "\n") {
		t.Fatalf("resumed stream diverges:\nfull   : %d lines\nresumed: %d lines after cut %d",
			len(full), len(resumed), cut)
	}
	// Resuming at the very end yields an empty, well-formed response.
	if end := lines(len(full)); len(end) != 1 || end[0] != "" {
		t.Fatalf("resume at the end streamed %q, want an empty body", end)
	}

	// A negative resume index is a config error, not a silent fresh run.
	cfg.Resume = &actuary.StreamResume{NextIndex: -1}
	body, _ := json.Marshal(cfg)
	resp := postJSON(t, ts.URL+"/v1/stream", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative resume index: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestStreamNDJSONSlabPointIdentity checks the slab-size equivalence
// on the wire: an ordered /v1/stream response (default slabs) must be
// byte-identical, line for line, to the same scenario streamed locally
// in one-request slabs, across resume points.
func TestStreamNDJSONSlabPointIdentity(t *testing.T) {
	_, ts := newTestServer(t, []actuary.Option{actuary.WithWorkers(3)})
	cfg := actuary.ScenarioConfig{
		Name:      "slab-identity",
		Questions: []string{"total-cost", "re"},
		Sweeps: []actuary.SweepConfig{{
			Name: "sw", Nodes: []string{"5nm", "7nm"}, Scheme: "MCM", D2DFraction: 0.10,
			Quantity: 1_000_000, AreasMM2: []float64{200, 400, 600, 750}, Counts: []int{1, 2, 3},
		}},
	}
	for _, next := range []int{0, 5} {
		cfg.Resume = &actuary.StreamResume{NextIndex: next}
		body, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/stream", body)
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		streamed := strings.Split(strings.TrimSpace(string(data)), "\n")

		// Same scenario on a fresh local session in one-request slabs,
		// results marshaled like the handler does.
		src, err := cfg.Source()
		if err != nil {
			t.Fatal(err)
		}
		local, err := actuary.NewSession(actuary.WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := local.Stream(context.Background(), src,
			actuary.StreamOrdered(), actuary.StreamResumeAt(next), actuary.StreamSlabSize(1))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for r := range ch {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, string(line))
		}
		if len(streamed) != len(want) {
			t.Fatalf("resume %d: streamed %d lines, one-request slabs yield %d", next, len(streamed), len(want))
		}
		for i := range want {
			if streamed[i] != want[i] {
				t.Fatalf("resume %d line %d diverges:\nslab:  %s\npoint: %s", next, i, streamed[i], want[i])
			}
		}
	}
}
