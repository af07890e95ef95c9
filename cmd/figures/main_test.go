package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunSingleFigures(t *testing.T) {
	cases := map[string]string{
		"2":          "Figure 2a",
		"4":          "Figure 4 —",
		"5":          "Figure 5",
		"6":          "Figure 6",
		"8":          "Figure 8",
		"9":          "Figure 9",
		"10":         "Figure 10",
		"claims":     "payback-5nm",
		"ablations":  "chip-last advantage",
		"extensions": "process maturity",
		"robustness": "Monte Carlo",
	}
	for fig, want := range cases {
		var out bytes.Buffer
		if err := run([]string{"-fig", fig}, &out); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("-fig %s: output missing %q", fig, want)
		}
	}
}

func TestRunAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"==== Figure 2 ====", "==== Figure 10 ====", "==== In-text claims ====", "==== Ablations ====",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunAllGolden pins every printed digit of `figures -fig all`:
// the figures, the claims, the ablations, the extensions and the
// robustness study.
func TestRunAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/all.golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/all.golden has %d", len(gl), len(wl))
	}
}

func TestRunDeterministic(t *testing.T) {
	// Every artifact — including the Monte Carlo robustness study —
	// must be byte-identical across runs (fixed seeds, no wall-clock
	// input).
	var a, b bytes.Buffer
	if err := run([]string{"-fig", "robustness"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "robustness"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("robustness output differs across runs")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "99"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-tech", "/missing.json"}, &out); err == nil {
		t.Error("missing tech file accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}
