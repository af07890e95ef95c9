package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"chipletactuary"
)

func TestPaybackMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "payback", "-node", "5nm", "-area", "800"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pays back") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestOptimalKMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "optimal-k", "-node", "5nm", "-area", "800", "-quantity", "2000000"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "optimum:") || !strings.Contains(s, "Partition sweep") {
		t.Errorf("unexpected output: %s", s)
	}
}

func TestTurningMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "turning", "-node", "5nm", "-chiplets", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "starts beating") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestSensitivityMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "sensitivity", "-node", "7nm", "-area", "600", "-chiplets", "3", "-scheme", "2.5D"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "swing") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "nonsense"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(context.Background(), []string{"-mode", "payback", "-scheme", "3D"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
	// Payback that never happens: tiny cheap system on 2.5D.
	if err := run(context.Background(), []string{"-mode", "payback", "-node", "14nm", "-area", "100", "-scheme", "2.5D"}, &out); err == nil {
		t.Error("expected never-pays-back error")
	}
}

func TestSweepMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "sweep",
		"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
		"-area-range", "200:600:200", "-count-range", "1:4", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Top 3 of", "Pareto front", "cheapest"} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep output lacks %q:\n%s", want, s)
		}
	}
	// Axis values must show up as generated point IDs.
	if !strings.Contains(s, "sweep-7nm-") {
		t.Errorf("sweep output names no 7nm points:\n%s", s)
	}
}

func TestSearchMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "search",
		"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
		"-area-range", "200:600:100", "-count-range", "1:4", "-top", "3",
		"-refine", "4:1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Top 3 by adaptive search") {
		t.Errorf("search output lacks the top table:\n%s", s)
	}
	if !strings.Contains(s, "search-7nm-") {
		t.Errorf("search output names no 7nm points:\n%s", s)
	}
	for _, args := range [][]string{
		{"-mode", "search", "-refine", "one"},
		{"-mode", "search", "-refine", "1"},    // factor < 2
		{"-mode", "search", "-halving", "8"},   // missing sample
		{"-mode", "search", "-halving", "8:0"}, // sample < 1
		{"-mode", "search", "-budget", "-3"},   // negative budget
		{"-mode", "search", "-shards", "2"},    // sweep-only flag
		{"-mode", "search", "-backends", "local"},
		{"-mode", "sweep", "-budget", "10"}, // search-only flag
		{"-mode", "sweep", "-halving", "4:8"},
		{"-mode", "payback", "-refine", "4"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSearchModeCheckpointResume(t *testing.T) {
	// A search interrupted by checkpoint-save must resume from the file
	// and still print the answer; the file disappears on success.
	dir := t.TempDir()
	cp := dir + "/search.ckpt"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "search",
		"-node", "7nm", "-scheme", "MCM", "-area-range", "200:600:100",
		"-count-range", "1:4", "-top", "2", "-halving", "4:8",
		"-checkpoint", cp, "-checkpoint-every", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Top 2 by adaptive search") {
		t.Errorf("checkpointed search produced no table:\n%s", out.String())
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file not removed after success: %v", err)
	}
}

func TestSweepModeDefaultsAndErrors(t *testing.T) {
	// Singular -node/-scheme/-area defaults with the implicit 1:-maxk
	// count axis still sweep.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "sweep", "-node", "7nm",
		"-scheme", "MCM", "-area", "400", "-maxk", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Top ") {
		t.Errorf("default sweep produced no table:\n%s", out.String())
	}
	for _, args := range [][]string{
		{"-mode", "sweep", "-area-range", "bad"},
		{"-mode", "sweep", "-area-range", "100:500"},
		// ParseFloat accepts these; AreaRange must reject, not panic.
		{"-mode", "sweep", "-area-range", "NaN:800:1"},
		{"-mode", "sweep", "-area-range", "100:NaN:1"},
		{"-mode", "sweep", "-area-range", "100:800:NaN"},
		{"-mode", "sweep", "-area-range", "100:Inf:1"},
		{"-mode", "sweep", "-count-range", "1:2:3"},
		{"-mode", "sweep", "-count-range", "x:2"},
		{"-mode", "sweep", "-top", "0"},
		{"-mode", "sweep", "-nodes", "2nm"},
		{"-mode", "payback", "-nodes", "5nm,7nm"},
		{"-mode", "optimal-k", "-top", "3"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestNonFiniteQuantityFailsBeforeOutput: ParseFloat accepts "NaN" and
// "Inf", and a NaN volume used to print a top-K of $NaN totals (sweep)
// or die mid-stream in the JSON encoder (stream). Grid validation must
// reject it before anything is written.
func TestNonFiniteQuantityFailsBeforeOutput(t *testing.T) {
	for _, mode := range [][]string{
		{"-mode", "sweep"},
		{"-mode", "stream", "-questions", "total-cost"},
	} {
		for _, q := range []string{"NaN", "Inf", "-Inf"} {
			args := append(append([]string{}, mode...), "-quantity", q, "-area-range", "100:300:100", "-count-range", "1:2")
			var buf bytes.Buffer
			err := run(context.Background(), args, &buf)
			if err == nil || !strings.Contains(err.Error(), "non-finite quantity") {
				t.Errorf("args %v: error %v, want a non-finite quantity error", args, err)
			}
			if buf.Len() != 0 {
				t.Errorf("args %v: wrote %d bytes before failing:\n%s", args, buf.Len(), buf.String())
			}
		}
	}
}

func TestSweepModeBackends(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-mode", "sweep", "-nodes", "5nm,7nm",
			"-area-range", "200:500:100", "-count-range", "1:4", "-top", "3"}, extra...)
	}
	var single bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	// Three in-process backends over five shards must print exactly the
	// single-process answer — the determinism guarantee, CLI edition.
	var dist bytes.Buffer
	if err := run(context.Background(), args("-backends", "local,local,local", "-shards", "5"), &dist); err != nil {
		t.Fatal(err)
	}
	if single.String() != dist.String() {
		t.Errorf("distributed output diverged:\n--- single\n%s--- distributed\n%s", single.String(), dist.String())
	}
	// A daemon URL that is not listening fails with a transport error.
	var buf bytes.Buffer
	if err := run(context.Background(), args("-backends", "http://127.0.0.1:1"), &buf); err == nil {
		t.Error("unreachable backend accepted")
	}
	// -backends and -shards are sweep-only flags.
	for _, bad := range [][]string{
		{"-mode", "payback", "-backends", "local"},
		{"-mode", "turning", "-shards", "2"},
		{"-mode", "sweep", "-backends", "ftp://nope"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), bad, &buf); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

func TestSweepModeBackendsPartialFailure(t *testing.T) {
	// A grid with one failing node axis value: the printed "first
	// infeasible point" line must match the single-process run even
	// though the failure is found by whichever shard owns it.
	args := func(extra ...string) []string {
		return append([]string{"-mode", "sweep", "-nodes", "7nm,2nm",
			"-area-range", "200:400:100", "-count-range", "1:3", "-top", "2"}, extra...)
	}
	var single, dist bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(single.String(), "first infeasible point") {
		t.Fatalf("partial-failure sweep printed no failure line:\n%s", single.String())
	}
	if err := run(context.Background(), args("-backends", "local,local", "-shards", "4"), &dist); err != nil {
		t.Fatal(err)
	}
	if single.String() != dist.String() {
		t.Errorf("distributed output diverged:\n--- single\n%s--- distributed\n%s", single.String(), dist.String())
	}
}

// TestStreamModeBackends: -backends stripes the stream across a fixed
// pool of in-process backends and must print exactly the in-process
// NDJSON stream.
func TestStreamModeBackends(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-mode", "stream", "-questions", "total-cost",
			"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
			"-area-range", "200:600:100", "-count-range", "1:4"}, extra...)
	}
	var single, dist bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(single.String(), "\n"); n < 50 {
		t.Fatalf("in-process stream printed %d lines; the grid is too small to stripe", n)
	}
	if err := run(context.Background(), args("-backends", "local,local,local"), &dist); err != nil {
		t.Fatal(err)
	}
	if single.String() != dist.String() {
		t.Errorf("striped stream diverged from the in-process stream:\n--- single\n%s--- striped\n%s", single.String(), dist.String())
	}
}

// failingWriter rejects every write, standing in for a broken stdout.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("stdout closed") }

// TestSweepModeBackendsCheckpoint pins the checkpoint contract of
// -backends: without -shards the sweep is cut into one shard per
// backend, so checkpoints written by earlier -backends runs stay
// loadable; a resume merges the recorded shards without dispatching
// them; a different shard count is rejected.
func TestSweepModeBackendsCheckpoint(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-mode", "sweep", "-nodes", "5nm,7nm",
			"-area-range", "200:500:100", "-count-range", "1:4", "-top", "3"}, extra...)
	}
	var single bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir() + "/sweep.ckpt"

	// A run whose stdout breaks after the answer is computed keeps its
	// checkpoint, with every shard drained.
	if err := run(context.Background(), args("-backends", "local,local", "-checkpoint", cp), failingWriter{}); err == nil {
		t.Fatal("sweep printing to a broken stdout succeeded")
	}
	saved := new(actuary.CoordinatorCheckpoint)
	if err := actuary.LoadCheckpointFile(cp, saved); err != nil {
		t.Fatal(err)
	}
	if saved.Shards != 2 || len(saved.Completed) != 2 {
		t.Fatalf("checkpoint records %d of %d shards, want 2 of 2 (one shard per backend)", len(saved.Completed), saved.Shards)
	}

	// Another shard count does not match the saved partition.
	var buf bytes.Buffer
	err := run(context.Background(), args("-backends", "local,local", "-shards", "3", "-checkpoint", cp), &buf)
	if !errors.Is(err, actuary.ErrCheckpointMismatch) {
		t.Fatalf("resume with -shards 3: %v, want ErrCheckpointMismatch", err)
	}

	// The resume needs no backend: both listed daemons are unreachable,
	// so the answer can only come from the checkpoint.
	var resumed bytes.Buffer
	if err := run(context.Background(), args("-backends", "http://127.0.0.1:1,http://127.0.0.1:1", "-checkpoint", cp), &resumed); err != nil {
		t.Fatal(err)
	}
	if single.String() != resumed.String() {
		t.Errorf("resumed output diverged:\n--- single\n%s--- resumed\n%s", single.String(), resumed.String())
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file not removed after success: %v", err)
	}
}

// errStdoutClosed is what a brokenWriter's stdout fails with.
var errStdoutClosed = errors.New("stdout closed")

// brokenWriter accepts `limit` bytes, then fails every write: a stdout
// that breaks partway through a run.
type brokenWriter struct {
	bytes.Buffer
	limit int
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	room := w.limit - w.Len()
	if room >= len(p) {
		return w.Buffer.Write(p)
	}
	n, _ := w.Buffer.Write(p[:max(room, 0)])
	return n, errStdoutClosed
}

// TestStreamModeBackendsCheckpoint pins the checkpoint contract of a
// -backends stream: a run whose stdout breaks midway leaves a
// FleetStreamCheckpoint striped one shard per backend, and a rerun
// delivers exactly the tail that checkpoint has not claimed, so the
// claimed prefix plus the tail is the in-process stream.
func TestStreamModeBackendsCheckpoint(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-mode", "stream", "-questions", "total-cost",
			"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
			"-area-range", "200:600:100", "-count-range", "1:4"}, extra...)
	}
	var single bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(single.String(), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	cp := t.TempDir() + "/stream.ckpt"

	broken := &brokenWriter{limit: single.Len() / 2}
	err := run(context.Background(), args("-backends", "local,local", "-checkpoint", cp, "-checkpoint-every", "7"), broken)
	if !errors.Is(err, errStdoutClosed) {
		t.Fatalf("stream to a broken stdout returned %v, want the write error", err)
	}
	saved := new(actuary.FleetStreamCheckpoint)
	if err := actuary.LoadCheckpointFile(cp, saved); err != nil {
		t.Fatal(err)
	}
	claimed := saved.Merged.Next
	if saved.Shards != 2 || claimed == 0 || claimed >= len(lines) {
		t.Fatalf("checkpoint stripes %d shards with %d of %d results delivered; want 2 shards, a proper prefix",
			saved.Shards, claimed, len(lines))
	}
	prefix := strings.Join(lines[:claimed], "")
	if !strings.HasPrefix(broken.String(), prefix) {
		t.Fatalf("checkpoint claims %d results the broken stdout never received", claimed)
	}

	var resumed bytes.Buffer
	if err := run(context.Background(), args("-backends", "local,local", "-checkpoint", cp, "-checkpoint-every", "7"), &resumed); err != nil {
		t.Fatal(err)
	}
	if got := prefix + resumed.String(); got != single.String() {
		t.Errorf("claimed prefix + resumed tail diverged from the in-process stream:\n--- single\n%s--- combined\n%s", single.String(), got)
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file not removed after success: %v", err)
	}
	// The in-process stream has no cursor to checkpoint.
	if err := run(context.Background(), args("-checkpoint", cp), &bytes.Buffer{}); err == nil {
		t.Error("-checkpoint without -backends or -fleet accepted in stream mode")
	}
}
