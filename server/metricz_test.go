package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	actuary "chipletactuary"
)

// TestMetriczEndpoint: GET /v1/metricz serves the session's metrics
// as one strict canonical-JSON document — the structured twin of the
// Prometheus text endpoint, and what fleet.Monitor probes first.
func TestMetriczEndpoint(t *testing.T) {
	_, ts := newTestServer(t, []actuary.Option{actuary.WithWorkers(3)})
	body, _ := json.Marshal([]actuary.Request{{Question: actuary.QuestionTotalCost,
		System: actuary.Monolithic("m", "7nm", 400, 1e6)}})
	postJSON(t, ts.URL+"/v1/evaluate", body).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q, want JSON", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap actuary.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metricz payload does not strict-decode: %v\n%s", err, data)
	}
	if snap.Workers != 3 {
		t.Errorf("workers = %d, want 3", snap.Workers)
	}
	if snap.Session.Requests() != 1 {
		t.Errorf("requests = %d, want 1", snap.Session.Requests())
	}
	if snap.Session.StreamsStarted != 1 || snap.Session.StreamsCompleted != 1 {
		t.Errorf("streams = %d/%d started/completed, want 1/1",
			snap.Session.StreamsStarted, snap.Session.StreamsCompleted)
	}

	// The text endpoint and the snapshot must agree on worker width.
	textResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer textResp.Body.Close()
	text, _ := io.ReadAll(textResp.Body)
	if !strings.Contains(string(text), "actuary_workers 3") {
		t.Errorf("/metrics lacks actuary_workers 3:\n%s", text)
	}
}
