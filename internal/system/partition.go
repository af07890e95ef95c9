package system

import (
	"fmt"
	"strconv"
	"strings"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// Monolithic builds an SoC system: one die carrying a single module of
// the given area, no D2D interface.
func Monolithic(name, node string, moduleAreaMM2, quantity float64) System {
	// Both names are sliced out of one string: "<name>-die<name>-logic".
	var b strings.Builder
	b.Grow(2*len(name) + len("-die") + len("-logic"))
	b.WriteString(name)
	b.WriteString("-die")
	b.WriteString(name)
	b.WriteString("-logic")
	names := b.String()
	die := len(name) + len("-die")
	return System{
		Name:   name,
		Scheme: packaging.SoC,
		Placements: []Placement{{
			Chiplet: Chiplet{
				Name:    names[:die],
				Node:    node,
				Modules: []Module{{Name: names[die:], AreaMM2: moduleAreaMM2, Scalable: true}},
				D2D:     dtod.None{},
			},
			Count: 1,
		}},
		Quantity: quantity,
	}
}

// PartitionEqual re-partitions a monolithic module area into k
// distinct chiplets of equal module area, each carrying the D2D
// overhead, integrated by the given scheme. This is the §4.1
// experiment setup ("we divide a monolithic chip into different
// numbers of chiplets ... no reuse is utilized"): each chiplet is a
// separate design, so each pays its own chip NRE.
func PartitionEqual(name, node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	if k < 1 {
		return System{}, fmt.Errorf("system: partition count %d must be ≥ 1", k)
	}
	if moduleAreaMM2 <= 0 {
		return System{}, fmt.Errorf("system: module area %v must be positive", moduleAreaMM2)
	}
	if k == 1 && scheme == packaging.SoC {
		return Monolithic(name, node, moduleAreaMM2, quantity), nil
	}
	if scheme == packaging.SoC {
		return System{}, fmt.Errorf("system: cannot partition into %d chiplets on an SoC", k)
	}
	per := moduleAreaMM2 / float64(k)
	// This constructor runs once per sweep candidate, so it makes three
	// allocations whatever k is: the placements, one backing Module
	// array sliced per chiplet, and one builder buffer, sized up front,
	// holding all 2k names ("<name>-part-<i><name>-chiplet-<i>" for
	// each i). Each name is a substring of the builder's string; bytes
	// already written never change, so earlier substrings stay valid.
	const part, chiplet = "-part-", "-chiplet-"
	size := 0
	for i := 1; i <= k; i++ {
		size += 2*len(name) + len(part) + len(chiplet) + 2*decimalLen(i)
	}
	var b strings.Builder
	b.Grow(size)
	var seq [20]byte
	placements := make([]Placement, k)
	modules := make([]Module, k)
	for i := range placements {
		digits := strconv.AppendInt(seq[:0], int64(i+1), 10)
		start := b.Len()
		b.WriteString(name)
		b.WriteString(part)
		b.Write(digits)
		mid := b.Len()
		b.WriteString(name)
		b.WriteString(chiplet)
		b.Write(digits)
		names := b.String()
		// Field by field into the zeroed slices: a composite literal
		// would be built on the stack and copied in.
		m := &modules[i]
		m.Name, m.AreaMM2, m.Scalable = names[start:mid], per, true
		c := &placements[i].Chiplet
		c.Name, c.Node, c.Modules, c.D2D = names[mid:], node, modules[i:i+1:i+1], d2d
		placements[i].Count = 1
	}
	return System{Name: name, Scheme: scheme, Placements: placements, Quantity: quantity}, nil
}

// decimalLen returns the number of decimal digits of a positive n.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// PartitionWeighted splits a module area into chiplets with the given
// weights (normalized internally). Each chiplet is a distinct design.
func PartitionWeighted(name, node string, moduleAreaMM2 float64, weights []float64,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	if len(weights) == 0 {
		return System{}, fmt.Errorf("system: no partition weights")
	}
	if moduleAreaMM2 <= 0 {
		return System{}, fmt.Errorf("system: module area %v must be positive", moduleAreaMM2)
	}
	if scheme == packaging.SoC && len(weights) > 1 {
		return System{}, fmt.Errorf("system: cannot partition into %d chiplets on an SoC", len(weights))
	}
	var total float64
	for i, w := range weights {
		if w <= 0 {
			return System{}, fmt.Errorf("system: weight %d is non-positive (%v)", i, w)
		}
		total += w
	}
	placements := make([]Placement, len(weights))
	for i, w := range weights {
		placements[i] = Placement{
			Chiplet: Chiplet{
				Name:    fmt.Sprintf("%s-chiplet-%d", name, i+1),
				Node:    node,
				Modules: []Module{{Name: fmt.Sprintf("%s-part-%d", name, i+1), AreaMM2: moduleAreaMM2 * w / total, Scalable: true}},
				D2D:     d2d,
			},
			Count: 1,
		}
	}
	return System{Name: name, Scheme: scheme, Placements: placements, Quantity: quantity}, nil
}
