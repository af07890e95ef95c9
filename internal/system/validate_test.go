package system

import (
	"fmt"
	"math"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// namesByDies is the chiplet-name consistency check written over the
// expanded dies: each die is compared with the first die of its name.
func namesByDies(s System) error {
	byName := make(map[string]Chiplet)
	for _, c := range s.Dies() {
		if prev, ok := byName[c.Name]; ok {
			if prev.Node != c.Node || prev.DieArea() != c.DieArea() {
				return fmt.Errorf("system: %q uses chiplet name %q for two different designs",
					s.Name, c.Name)
			}
			continue
		}
		byName[c.Name] = c
	}
	return nil
}

// TestValidateNameConflicts checks Validate reports the same chiplet
// name conflict, with the same text, as the per-die check.
func TestValidateNameConflicts(t *testing.T) {
	d := db(t)
	chip := func(name, node string, area float64) Chiplet {
		return Chiplet{Name: name, Node: node, D2D: dtod.Fraction{F: 0.1},
			Modules: []Module{{Name: name + "-m", AreaMM2: area}}}
	}
	a, b, c := chip("a", "7nm", 100), chip("b", "7nm", 80), chip("c", "5nm", 60)
	aNode, aArea := chip("a", "5nm", 100), chip("a", "7nm", 120)
	bNode := chip("b", "12nm", 80)
	nan := chip("n", "7nm", math.NaN())
	mk := func(ps ...Placement) System {
		return System{Name: "s", Scheme: packaging.MCM, Quantity: 1, Placements: ps}
	}
	cases := []struct {
		name string
		s    System
		want string // conflicting chiplet name; "" for none
	}{
		{"non-adjacent earlier", mk(Placement{a, 1}, Placement{b, 1}, Placement{c, 2}, Placement{aNode, 1}), "a"},
		{"first of two, in placement order", mk(Placement{a, 2}, Placement{b, 1}, Placement{aArea, 1}, Placement{bNode, 1}), "a"},
		{"first of two, later name first", mk(Placement{a, 1}, Placement{b, 1}, Placement{bNode, 3}, Placement{aArea, 1}), "b"},
		{"same name, same design", mk(Placement{a, 1}, Placement{b, 2}, Placement{a, 3}), ""},
		{"repeated count", mk(Placement{a, 4}), ""},
		{"NaN area, one copy", mk(Placement{nan, 1}, Placement{b, 1}), ""},
		{"NaN area, two copies", mk(Placement{b, 1}, Placement{nan, 2}), "n"},
	}
	for _, tc := range cases {
		want := namesByDies(tc.s)
		got := tc.s.Validate(d)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("%s: Validate = %v, per-die check = %v", tc.name, got, want)
			continue
		}
		if tc.want == "" {
			if got != nil {
				t.Errorf("%s: unexpected error %v", tc.name, got)
			}
			continue
		}
		if wantText := fmt.Sprintf("system: %q uses chiplet name %q for two different designs", "s", tc.want); got == nil || got.Error() != wantText {
			t.Errorf("%s: Validate = %v, want %q", tc.name, got, wantText)
		}
	}
}
