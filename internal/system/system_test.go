package system

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/units"
)

func db(t *testing.T) *tech.Database {
	t.Helper()
	return tech.Default()
}

func TestMonolithic(t *testing.T) {
	s := Monolithic("big", "5nm", 800, 500_000)
	if err := s.Validate(db(t)); err != nil {
		t.Fatal(err)
	}
	if s.DieCount() != 1 {
		t.Errorf("die count = %d, want 1", s.DieCount())
	}
	if got := s.TotalDieArea(); got != 800 {
		t.Errorf("die area = %v, want 800 (no D2D on an SoC)", got)
	}
	if got := s.TotalModuleArea(); got != 800 {
		t.Errorf("module area = %v, want 800", got)
	}
	if s.Scheme != packaging.SoC {
		t.Errorf("scheme = %v, want SoC", s.Scheme)
	}
}

func TestPartitionEqualConservesModuleArea(t *testing.T) {
	d2d := dtod.Fraction{F: 0.10}
	for _, k := range []int{2, 3, 5} {
		s, err := PartitionEqual("sys", "7nm", 600, k, packaging.MCM, d2d, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(db(t)); err != nil {
			t.Fatal(err)
		}
		if got := s.TotalModuleArea(); !units.ApproxEqual(got, 600, 1e-9) {
			t.Errorf("k=%d: module area = %v, want 600", k, got)
		}
		// Die area includes 10% D2D: total = 600/0.9.
		if got := s.TotalDieArea(); !units.ApproxEqual(got, 600/0.9, 1e-9) {
			t.Errorf("k=%d: die area = %v, want %v", k, got, 600/0.9)
		}
		if s.DieCount() != k {
			t.Errorf("k=%d: die count = %d", k, s.DieCount())
		}
		// Each chiplet is a distinct design (no reuse in §4.1).
		if got := len(s.UniqueChiplets()); got != k {
			t.Errorf("k=%d: unique chiplets = %d, want %d", k, got, k)
		}
	}
}

func TestPartitionEqualSoCSpecialCases(t *testing.T) {
	s, err := PartitionEqual("sys", "7nm", 600, 1, packaging.SoC, dtod.Fraction{F: 0.1}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalDieArea() != 600 {
		t.Errorf("k=1 SoC must carry no D2D, got %v", s.TotalDieArea())
	}
	if _, err := PartitionEqual("sys", "7nm", 600, 2, packaging.SoC, dtod.None{}, 1e6); err == nil {
		t.Error("partitioning an SoC into 2 should fail")
	}
	if _, err := PartitionEqual("sys", "7nm", 600, 0, packaging.MCM, dtod.None{}, 1e6); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := PartitionEqual("sys", "7nm", -1, 2, packaging.MCM, dtod.None{}, 1e6); err == nil {
		t.Error("negative area should fail")
	}
}

func TestPartitionWeighted(t *testing.T) {
	s, err := PartitionWeighted("sys", "7nm", 600, []float64{3, 1}, packaging.MCM, dtod.None{}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Placements[0].Chiplet.ModuleArea()
	b := s.Placements[1].Chiplet.ModuleArea()
	if !units.ApproxEqual(a, 450, 1e-9) || !units.ApproxEqual(b, 150, 1e-9) {
		t.Errorf("weighted areas = %v, %v; want 450, 150", a, b)
	}
	for _, bad := range [][]float64{nil, {}, {1, -1}, {0}} {
		if _, err := PartitionWeighted("sys", "7nm", 600, bad, packaging.MCM, dtod.None{}, 1e6); err == nil {
			t.Errorf("weights %v accepted", bad)
		}
	}
	if _, err := PartitionWeighted("sys", "7nm", 0, []float64{1}, packaging.MCM, dtod.None{}, 1e6); err == nil {
		t.Error("zero area accepted")
	}
	if _, err := PartitionWeighted("sys", "7nm", 100, []float64{1, 2}, packaging.SoC, dtod.None{}, 1e6); err == nil {
		t.Error("multi-chiplet SoC accepted")
	}
}

func TestPropertyPartitionConservation(t *testing.T) {
	f := func(area float64, kRaw uint8, frac float64) bool {
		area = 50 + math.Mod(math.Abs(area), 800)
		k := 2 + int(kRaw%6)
		frac = math.Mod(math.Abs(frac), 0.3)
		s, err := PartitionEqual("p", "7nm", area, k, packaging.MCM, dtod.Fraction{F: frac}, 1)
		if err != nil {
			return false
		}
		if !units.ApproxEqual(s.TotalModuleArea(), area, 1e-9) {
			return false
		}
		if frac > 0 && s.TotalDieArea() <= s.TotalModuleArea() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChipletAreas(t *testing.T) {
	c := Chiplet{
		Name: "x", Node: "7nm",
		Modules: []Module{{Name: "a", AreaMM2: 90}, {Name: "b", AreaMM2: 90}},
		D2D:     dtod.Fraction{F: 0.10},
	}
	if got := c.ModuleArea(); got != 180 {
		t.Errorf("module area = %v", got)
	}
	if got := c.DieArea(); !units.ApproxEqual(got, 200, 1e-9) {
		t.Errorf("die area = %v, want 200", got)
	}
	nil2d := Chiplet{Name: "y", Node: "7nm", Modules: []Module{{Name: "a", AreaMM2: 50}}}
	if got := nil2d.D2DArea(); got != 0 {
		t.Errorf("nil D2D should be 0, got %v", got)
	}
}

func TestChipletValidate(t *testing.T) {
	d := db(t)
	good := Chiplet{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 100}}, D2D: dtod.None{}}
	if err := good.Validate(d); err != nil {
		t.Errorf("good chiplet rejected: %v", err)
	}
	cases := []Chiplet{
		{Name: "", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 100}}},
		{Name: "x", Node: "1nm", Modules: []Module{{Name: "m", AreaMM2: 100}}},
		{Name: "x", Node: "7nm"},
		{Name: "x", Node: "7nm", Modules: []Module{{Name: "", AreaMM2: 100}}},
		{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: -1}}},
	}
	for i, c := range cases {
		if err := c.Validate(d); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestReticleWarnings(t *testing.T) {
	d := db(t)
	over := Chiplet{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 900}}, D2D: dtod.None{}}
	// The paper models 900 mm² SoCs, so validation passes...
	if err := over.Validate(d); err != nil {
		t.Errorf("over-reticle chiplet should validate (advisory only): %v", err)
	}
	// ...but a warning is raised.
	if w := over.Warnings(); len(w) != 1 {
		t.Errorf("warnings = %v, want exactly one reticle warning", w)
	}
	under := Chiplet{Name: "y", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 400}}, D2D: dtod.None{}}
	if w := under.Warnings(); len(w) != 0 {
		t.Errorf("unexpected warnings: %v", w)
	}
	sys := System{Name: "s", Scheme: packaging.MCM, Quantity: 1,
		Placements: []Placement{{Chiplet: over, Count: 2}, {Chiplet: under, Count: 1}}}
	if w := sys.Warnings(); len(w) != 1 {
		t.Errorf("system warnings = %v, want 1 (per design, not per instance)", w)
	}
}

func TestSystemValidate(t *testing.T) {
	d := db(t)
	mk := func() System {
		s, _ := PartitionEqual("s", "7nm", 400, 2, packaging.MCM, dtod.Fraction{F: 0.1}, 1e6)
		return s
	}
	if err := mk().Validate(d); err != nil {
		t.Fatalf("good system rejected: %v", err)
	}

	s := mk()
	s.Name = ""
	if err := s.Validate(d); err == nil {
		t.Error("empty name accepted")
	}

	s = mk()
	s.Placements = nil
	if err := s.Validate(d); err == nil {
		t.Error("no placements accepted")
	}

	s = mk()
	s.Placements[0].Count = 0
	if err := s.Validate(d); err == nil {
		t.Error("zero count accepted")
	}

	s = mk()
	s.Quantity = -1
	if err := s.Validate(d); err == nil {
		t.Error("negative quantity accepted")
	}

	s = mk()
	s.Scheme = packaging.SoC
	if err := s.Validate(d); err == nil {
		t.Error("2-die SoC accepted")
	}

	s = mk()
	s.Envelope = &Envelope{Name: "", FootprintMM2: 1000}
	if err := s.Validate(d); err == nil {
		t.Error("unnamed envelope accepted")
	}

	s = mk()
	s.Envelope = &Envelope{Name: "env", FootprintMM2: 0}
	if err := s.Validate(d); err == nil {
		t.Error("zero-footprint envelope accepted")
	}

	// One name, two designs.
	s = mk()
	clash := s.Placements[1]
	clash.Chiplet.Name = s.Placements[0].Chiplet.Name
	clash.Chiplet.Node = "5nm"
	s.Placements[1] = clash
	if err := s.Validate(d); err == nil {
		t.Error("conflicting designs under one name accepted")
	} else if !strings.Contains(err.Error(), "two different designs") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDiesExpansion(t *testing.T) {
	c := Chiplet{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 100}}, D2D: dtod.None{}}
	s := System{Name: "s", Scheme: packaging.MCM, Placements: []Placement{{Chiplet: c, Count: 3}}, Quantity: 1}
	dies := s.Dies()
	if len(dies) != 3 {
		t.Fatalf("dies = %d, want 3", len(dies))
	}
	if got := len(s.UniqueChiplets()); got != 1 {
		t.Errorf("unique = %d, want 1", got)
	}
}

func TestPackageName(t *testing.T) {
	s := Monolithic("solo", "7nm", 100, 1)
	if s.PackageName() != "solo" {
		t.Errorf("own package name = %q", s.PackageName())
	}
	s.Envelope = &Envelope{Name: "family-pkg", FootprintMM2: 500}
	if s.PackageName() != "family-pkg" {
		t.Errorf("envelope package name = %q", s.PackageName())
	}
}

// TestPartitionEqualNames pins the chiplet and module names to their
// concatenated spelling for k = 1…64 — one-digit and two-digit
// suffixes alike — on every scheme, plus the monolithic pair.
func TestPartitionEqualNames(t *testing.T) {
	for _, name := range []string{"sys", "", "g-5nm-MCM-q1e+06-a800-k4"} {
		soc, err := PartitionEqual(name, "5nm", 800, 1, packaging.SoC, dtod.None{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := soc.Placements[0].Chiplet
		if c.Name != name+"-die" || c.Modules[0].Name != name+"-logic" {
			t.Fatalf("monolithic %q: names %q/%q", name, c.Name, c.Modules[0].Name)
		}
		for _, scheme := range []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD} {
			for k := 1; k <= 64; k++ {
				s, err := PartitionEqual(name, "7nm", 640, k, scheme, dtod.Fraction{F: 0.1}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if s.Name != name || len(s.Placements) != k {
					t.Fatalf("%q k=%d: system %q with %d placements", name, k, s.Name, len(s.Placements))
				}
				for i, p := range s.Placements {
					seq := strconv.Itoa(i + 1)
					if want := name + "-chiplet-" + seq; p.Chiplet.Name != want {
						t.Fatalf("%q k=%d chiplet %d: name %q, want %q", name, k, i, p.Chiplet.Name, want)
					}
					if want := name + "-part-" + seq; p.Chiplet.Modules[0].Name != want {
						t.Fatalf("%q k=%d module %d: name %q, want %q", name, k, i, p.Chiplet.Modules[0].Name, want)
					}
				}
				// A byte-slice name builds the same system, and the
				// system keeps its own copy: reusing the buffer (as
				// the sweep generator does) changes no name.
				buf := []byte(name)
				bs, err := PartitionEqual(buf, "7nm", 640, k, scheme, dtod.Fraction{F: 0.1}, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					buf[i] = '#'
				}
				if !reflect.DeepEqual(bs, s) {
					t.Fatalf("%q k=%d: []byte name built %+v, want %+v", name, k, bs, s)
				}
			}
		}
		buf := []byte(name)
		bsoc, err := PartitionEqual(buf, "5nm", 800, 1, packaging.SoC, dtod.None{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		if !reflect.DeepEqual(bsoc, soc) {
			t.Fatalf("monolithic %q: []byte name built %+v, want %+v", name, bsoc, soc)
		}
	}
}

// TestPartitionEqualAllocs pins the constructor to three allocations
// whatever the width: placements, modules and one name string. A
// byte-slice name (longer than any stack buffer a string conversion
// could use) is copied into that string, not converted on the side.
func TestPartitionEqualAllocs(t *testing.T) {
	byteName := []byte(strings.Repeat("sweep-5nm-2.5D-q1e+06-a123.25-k", 5))
	for _, k := range []int{2, 9, 12, 64} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := PartitionEqual("sys", "5nm", 800, k, packaging.MCM, dtod.None{}, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("k=%d: %.1f allocs, want ≤ 3", k, allocs)
		}
		var s System
		allocs = testing.AllocsPerRun(50, func() {
			var err error
			if s, err = PartitionEqual(byteName, "5nm", 800, k, packaging.MCM, dtod.None{}, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("k=%d, []byte name: %.1f allocs, want ≤ 3", k, allocs)
		}
		if s.Name != string(byteName) {
			t.Errorf("k=%d, []byte name: system name %q, want %q", k, s.Name, byteName)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { Monolithic("sys", "5nm", 800, 1) }); allocs > 3 {
		t.Errorf("Monolithic: %.1f allocs, want ≤ 3", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { Monolithic(byteName, "5nm", 800, 1) }); allocs > 3 {
		t.Errorf("Monolithic, []byte name: %.1f allocs, want ≤ 3", allocs)
	}
}

// TestAsUniformNames checks the pairwise name-distinctness test behind
// AsUniform: names that differ only before their shared last byte are
// distinct, and an identical chiplet or module name disqualifies the
// system.
func TestAsUniformNames(t *testing.T) {
	build := func(chiplets, modules []string) System {
		t.Helper()
		s, err := PartitionEqual("u", "5nm", 600, len(chiplets), packaging.MCM, dtod.Fraction{F: 0.1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Placements {
			c := &s.Placements[i].Chiplet
			c.Name, c.Modules[0].Name = chiplets[i], modules[i]
		}
		return s
	}
	for _, tc := range []struct {
		chiplets, modules []string
		uniform           bool
	}{
		{[]string{"c-1", "c-2", "c-3"}, []string{"m-1", "m-2", "m-3"}, true},
		{[]string{"a-chiplet-1", "b-chiplet-1"}, []string{"a-part-1", "b-part-1"}, true},
		{[]string{"chiplet-x1", "chiplet-y1"}, []string{"m-1", "m-2"}, true},
		{[]string{"c", "cc"}, []string{"m-1", "m-2"}, true},
		{[]string{"c-1", "c-2", "c-1"}, []string{"m-1", "m-2", "m-3"}, false},
		{[]string{"c-1", "c-2"}, []string{"m-x", "m-x"}, false},
		{[]string{"same-name-7", "same-name-7"}, []string{"same-name-7", "same-name-7"}, false},
	} {
		if _, ok := AsUniform(build(tc.chiplets, tc.modules)); ok != tc.uniform {
			t.Errorf("chiplets %q modules %q: uniform=%v, want %v", tc.chiplets, tc.modules, ok, tc.uniform)
		}
	}
	for _, p := range [][2]string{{"", ""}, {"a", "a"}, {"ab", "ba"}, {"x-1", "y-1"}, {"x-1", "x-2"}, {"abc", "ab"}} {
		if got, want := sameName(p[0], p[1]), p[0] == p[1]; got != want {
			t.Errorf("sameName(%q, %q) = %v, want %v", p[0], p[1], got, want)
		}
	}
}
