package client_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"chipletactuary"
	"chipletactuary/client"
	"chipletactuary/server"
)

// newBackends returns a remote client against a fresh httptest
// actuaryd and a Local backend over an identically configured
// session.
func newBackends(t *testing.T) (remote *client.Client, local client.Backend) {
	t.Helper()
	session, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(session).Handler())
	t.Cleanup(ts.Close)
	remote, err = client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	localSession, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return remote, client.Local(localSession)
}

func TestDialValidation(t *testing.T) {
	for _, bad := range []string{"", "::::", "ftp://host", "http://"} {
		if _, err := client.Dial(bad); err == nil {
			t.Errorf("Dial(%q) should fail", bad)
		}
	}
	if _, err := client.Dial("http://localhost:8833/"); err != nil {
		t.Errorf("Dial with trailing slash: %v", err)
	}
}

func testRequests(t *testing.T) []actuary.Request {
	t.Helper()
	ch, err := actuary.PartitionEqual("ch", "7nm", 600, 2, actuary.MCM, actuary.D2DFraction(0.10), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return []actuary.Request{
		{ID: "tc", Question: actuary.QuestionTotalCost, System: actuary.Monolithic("m", "7nm", 500, 2e6)},
		{ID: "pay", Question: actuary.QuestionCrossoverQuantity,
			Incumbent: actuary.Monolithic("inc", "7nm", 600, 1), Challenger: ch},
		{ID: "bad", Question: actuary.QuestionTotalCost, System: actuary.Monolithic("x", "2nm", 100, 1e6)},
	}
}

// TestEvaluateRemoteMatchesLocal proves the one-interface promise:
// the same requests through client.Dial and client.Local yield the
// same wire results.
func TestEvaluateRemoteMatchesLocal(t *testing.T) {
	remote, local := newBackends(t)
	reqs := testRequests(t)
	got, err := remote.Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want[i])
		if string(gj) != string(wj) {
			t.Errorf("result %d differs:\nremote: %s\n local: %s", i, gj, wj)
		}
	}
	if got[2].Err == nil {
		t.Fatal("bad request should fail")
	}
	if ae, ok := actuary.AsError(got[2].Err); !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("remote error lost its code: %v", got[2].Err)
	}
}

func testScenario() actuary.ScenarioConfig {
	return actuary.ScenarioConfig{
		Version: 2, Name: "remote", Questions: []string{"total-cost"},
		Sweeps: []actuary.SweepConfig{{
			Name: "s", Node: "7nm", Scheme: "MCM", D2DFraction: 0.10, Quantity: 2e6,
			AreasMM2: []float64{300, 500}, Counts: []int{1, 2, 3},
		}},
	}
}

func drainIDs(t *testing.T, ch <-chan actuary.Result) []string {
	t.Helper()
	var ids []string
	for res := range ch {
		if res.Err != nil {
			t.Fatalf("result %q failed: %v", res.ID, res.Err)
		}
		ids = append(ids, res.ID)
	}
	sort.Strings(ids)
	return ids
}

func TestStreamRemoteMatchesLocal(t *testing.T) {
	remote, local := newBackends(t)
	cfg := testScenario()
	remoteCh, err := remote.Stream(context.Background(), client.StreamRequest{Scenario: cfg})
	if err != nil {
		t.Fatal(err)
	}
	localCh, err := local.Stream(context.Background(), client.StreamRequest{Scenario: cfg})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs := drainIDs(t, remoteCh)
	wantIDs := drainIDs(t, localCh)
	if len(gotIDs) != 6 {
		t.Fatalf("streamed %d results, want 6", len(gotIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("remote IDs %v != local IDs %v", gotIDs, wantIDs)
		}
	}
}

// TestStreamAcceptsV1LoadedScenario guards the Backend promise for
// configs read from v1 documents: ReadScenarioConfig marks them
// Version 1, and the client must normalize that before shipping or
// the server rejects what Local streams happily.
func TestStreamAcceptsV1LoadedScenario(t *testing.T) {
	remote, local := newBackends(t)
	v1 := `{"name":"epyc-like","scheme":"MCM","quantity":2000000,
	        "chiplets":[{"name":"ccd","node":"7nm","module_area_mm2":67,"d2d_fraction":0.10,"count":8}]}`
	cfg, err := actuary.ReadScenarioConfig(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != 1 {
		t.Fatalf("fixture did not load as v1 (version %d)", cfg.Version)
	}
	remoteCh, err := remote.Stream(context.Background(), client.StreamRequest{Scenario: cfg})
	if err != nil {
		t.Fatalf("remote backend rejected a v1-loaded scenario: %v", err)
	}
	localCh, err := local.Stream(context.Background(), client.StreamRequest{Scenario: cfg})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs := drainIDs(t, remoteCh)
	wantIDs := drainIDs(t, localCh)
	if len(gotIDs) != len(wantIDs) || len(gotIDs) == 0 {
		t.Fatalf("remote IDs %v != local IDs %v", gotIDs, wantIDs)
	}
}

func TestStreamServerRejection(t *testing.T) {
	remote, _ := newBackends(t)
	_, err := remote.Stream(context.Background(), client.StreamRequest{Scenario: actuary.ScenarioConfig{Version: 2, Name: "empty"}})
	if err == nil {
		t.Fatal("empty scenario should be rejected")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrInvalidConfig {
		t.Errorf("rejection lost its code: %v", err)
	}
}

// TestStreamTransportFailure cuts the NDJSON stream mid-line and
// expects one in-band transport-error result.
func TestStreamTransportFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, "{\"index\":0,\"question\":\"total-cost\"}\n")
		io.WriteString(w, "{\"index\":1,\"question\":  TRUNCATED")
	}))
	defer ts.Close()
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Stream(context.Background(), client.StreamRequest{Scenario: testScenario()})
	if err != nil {
		t.Fatal(err)
	}
	var results []actuary.Result
	for res := range ch {
		results = append(results, res)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (one good, one transport error)", len(results))
	}
	if results[0].Err != nil {
		t.Errorf("first result should be clean: %v", results[0].Err)
	}
	last := results[len(results)-1]
	ae, ok := actuary.AsError(last.Err)
	if !ok || ae.Code != actuary.ErrTransport {
		t.Errorf("broken stream should end with a transport error, got %v", last.Err)
	}
}

func TestStreamCancelStopsDelivery(t *testing.T) {
	remote, _ := newBackends(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := testScenario()
	cfg.Sweeps[0].AreaRange = &actuary.AreaRangeConfig{LoMM2: 100, HiMM2: 900, StepMM2: 1}
	cfg.Sweeps[0].AreasMM2 = nil
	ch, err := remote.Stream(ctx, client.StreamRequest{Scenario: cfg})
	if err != nil {
		t.Fatal(err)
	}
	<-ch // first result arrived; the stream is live
	cancel()
	for range ch {
	} // must close promptly instead of delivering the whole sweep
}

func TestQuestionsAndPing(t *testing.T) {
	remote, _ := newBackends(t)
	if err := remote.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	infos, err := remote.Questions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(actuary.Questions()) {
		t.Errorf("remote advertises %d questions, want %d", len(infos), len(actuary.Questions()))
	}

	down, err := client.Dial("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := down.Ping(context.Background()); err == nil {
		t.Error("Ping against a dead port should fail")
	} else if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrTransport {
		t.Errorf("dead-port error should classify transport: %v", err)
	}
}

// TestStreamResumeParity checks that a scenario "resume" field means
// the same thing on both backends: ordered delivery from the resume
// point, indexes continuing where the original stream stopped, and
// identical result sequences remote vs local.
func TestStreamResumeParity(t *testing.T) {
	remote, local := newBackends(t)
	cfg := testScenario()
	cfg.Resume = &actuary.StreamResume{NextIndex: 0}

	ordered := func(b client.Backend, next int) []actuary.Result {
		t.Helper()
		cfg.Resume = &actuary.StreamResume{NextIndex: next}
		ch, err := b.Stream(context.Background(), client.StreamRequest{Scenario: cfg})
		if err != nil {
			t.Fatal(err)
		}
		var out []actuary.Result
		for r := range ch {
			if r.Err != nil {
				t.Fatalf("result %q failed: %v", r.ID, r.Err)
			}
			out = append(out, r)
		}
		return out
	}
	fullRemote := ordered(remote, 0)
	fullLocal := ordered(local, 0)
	if len(fullRemote) != 6 || len(fullLocal) != 6 {
		t.Fatalf("streams yield %d/%d results, want 6", len(fullRemote), len(fullLocal))
	}
	for i := range fullRemote {
		if fullRemote[i].Index != i || fullLocal[i].Index != i {
			t.Fatalf("position %d carries indexes %d (remote) / %d (local) — resumable streams must be ordered",
				i, fullRemote[i].Index, fullLocal[i].Index)
		}
		if fullRemote[i].ID != fullLocal[i].ID {
			t.Fatalf("position %d: remote %q != local %q", i, fullRemote[i].ID, fullLocal[i].ID)
		}
	}
	for _, b := range []client.Backend{remote, local} {
		tail := ordered(b, 4)
		if len(tail) != 2 || tail[0].Index != 4 || tail[1].Index != 5 {
			t.Fatalf("resume at 4 yields %d results starting at %v", len(tail), tail)
		}
		if tail[0].ID != fullLocal[4].ID || tail[1].ID != fullLocal[5].ID {
			t.Fatalf("resumed tail %q/%q != original %q/%q",
				tail[0].ID, tail[1].ID, fullLocal[4].ID, fullLocal[5].ID)
		}
	}
	// Local rejects a negative resume index just like the server does.
	cfg.Resume = &actuary.StreamResume{NextIndex: -3}
	if _, err := local.Stream(context.Background(), client.StreamRequest{Scenario: cfg}); err == nil {
		t.Fatal("local backend accepted a negative resume index")
	}
}

// TestStreamRequestFields exercises the request-level delivery fields
// against both backend kinds: Shard stripes, Resume+Ordered skip and
// order, and every two-level conflict is rejected up front.
func TestStreamRequestFields(t *testing.T) {
	remote, local := newBackends(t)
	cfg := testScenario()
	for name, b := range map[string]client.Backend{"remote": remote, "local": local} {
		// Request-level resume behaves exactly like the scenario field.
		ch, err := b.Stream(context.Background(), client.StreamRequest{Scenario: cfg, Resume: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var tail []actuary.Result
		for r := range ch {
			if r.Err != nil {
				t.Fatalf("%s: result %q failed: %v", name, r.ID, r.Err)
			}
			tail = append(tail, r)
		}
		if len(tail) != 2 || tail[0].Index != 4 || tail[1].Index != 5 {
			t.Fatalf("%s: Resume:4 yields %+v", name, tail)
		}
		// Request-level sharding stripes the same six results.
		union := make(map[string]int)
		for i := 0; i < 2; i++ {
			ch, err := b.Stream(context.Background(),
				client.StreamRequest{Scenario: cfg, Shard: client.ShardSpec{Index: i, Count: 2}})
			if err != nil {
				t.Fatalf("%s shard %d: %v", name, i, err)
			}
			for r := range ch {
				if r.Err != nil {
					t.Fatalf("%s shard %d: result %q failed: %v", name, i, r.ID, r.Err)
				}
				union[r.ID]++
			}
		}
		if len(union) != 6 {
			t.Fatalf("%s: shard union holds %d IDs, want 6", name, len(union))
		}
		for id, n := range union {
			if n != 1 {
				t.Fatalf("%s: %q owned by %d shards", name, id, n)
			}
		}
	}
	// Conflicts and invalid fields are rejected before any evaluation.
	sharded := cfg
	sharded.ShardIndex, sharded.ShardCount = 0, 2
	resumed := cfg
	resumed.Resume = &actuary.StreamResume{NextIndex: 1}
	bad := map[string]client.StreamRequest{
		"shard conflict":   {Scenario: sharded, Shard: client.ShardSpec{Index: 1, Count: 2}},
		"resume conflict":  {Scenario: resumed, Resume: 2},
		"ordered conflict": {Scenario: resumed, Ordered: true},
		"negative resume":  {Scenario: cfg, Resume: -1},
	}
	for name, req := range bad {
		if _, err := local.Stream(context.Background(), req); err == nil {
			t.Errorf("local accepted %s", name)
		}
		if _, err := remote.Stream(context.Background(), req); err == nil {
			t.Errorf("remote accepted %s", name)
		}
	}
}
