package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	actuary "chipletactuary"
	"chipletactuary/client"
)

// TestProbeMetricz: against a real actuaryd the probe takes the
// structured /v1/metricz path.
func TestProbeMetricz(t *testing.T) {
	remote, _ := newBackends(t)
	res, err := remote.Evaluate(context.Background(), []actuary.Request{{
		Question: actuary.QuestionTotalCost,
		System:   actuary.Monolithic("m", "7nm", 400, 1e6)}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("evaluate: %v / %v", err, res[0].Err)
	}
	st, err := remote.Probe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != "metricz" {
		t.Errorf("Source = %q, want metricz", st.Source)
	}
	if st.Workers < 1 {
		t.Errorf("Workers = %d, want at least 1", st.Workers)
	}
	if st.Requests != 1 {
		t.Errorf("Requests = %d, want 1", st.Requests)
	}
	snap, err := remote.Metricz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Session.Requests() != 1 {
		t.Errorf("Metricz requests = %d, want 1", snap.Session.Requests())
	}
}

// TestProbeErrors: transport failures surface as *client.ProbeError —
// the typed verdict fleet.Monitor classifies on — for Probe and Ping
// alike.
func TestProbeErrors(t *testing.T) {
	down, err := client.Dial("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	var pe *client.ProbeError
	if _, err := down.Probe(context.Background()); !errors.As(err, &pe) {
		t.Errorf("Probe error = %v, want *client.ProbeError", err)
	}
	if err := down.Ping(context.Background()); !errors.As(err, &pe) {
		t.Errorf("Ping error = %v, want *client.ProbeError", err)
	}
	// A daemon that answers with a server error is also a probe
	// failure, not a parse attempt.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/metricz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Probe(context.Background()); !errors.As(err, &pe) {
		t.Errorf("500 probe error = %v, want *client.ProbeError", err)
	}
}

// TestLocalProbe: the in-process backend reports straight from its
// session, no wire involved.
func TestLocalProbe(t *testing.T) {
	session, err := actuary.NewSession(actuary.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	local := client.Local(session)
	prober, ok := local.(client.Prober)
	if !ok {
		t.Fatal("client.Local does not implement client.Prober")
	}
	st, err := prober.Probe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != "session" {
		t.Errorf("Source = %q, want session", st.Source)
	}
	if st.Workers != 2 {
		t.Errorf("Workers = %d, want 2", st.Workers)
	}
}
