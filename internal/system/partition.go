package system

import (
	"fmt"
	"strconv"
	"strings"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// Monolithic builds an SoC system: one die carrying a single module of
// the given area, no D2D interface. The name may be a string or a byte
// slice; the system keeps its own copy either way.
func Monolithic[S ~string | ~[]byte](name S, node string, moduleAreaMM2, quantity float64) System {
	var b strings.Builder
	head := startNames(&b, name, 2*len(name)+len("-die")+len("-logic"))
	return monolithic(&b, head, node, moduleAreaMM2, quantity)
}

// monolithic is Monolithic's body. All three names are sliced out of
// one string, "<name>-die<name>-logic", whose first len(head) bytes b
// already holds: the system name is the die name's prefix.
func monolithic(b *strings.Builder, head, node string, moduleAreaMM2, quantity float64) System {
	b.WriteString("-die")
	b.WriteString(head)
	b.WriteString("-logic")
	names := b.String()
	die := len(head) + len("-die")
	return System{
		Name:   head,
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
//
// The name may be a string or a byte slice. A sweep generator passes
// the reused buffer it builds each point ID in: the system copies the
// bytes once, into the one string that holds every chiplet and module
// name, and its Name is a prefix of that string.
func PartitionEqual[S ~string | ~[]byte](name S, node string, moduleAreaMM2 float64, k int,
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
	size := 0
	for i := 1; i <= k; i++ {
		size += 2*len(name) + len(partSep) + len(chipletSep) + 2*decimalLen(i)
	}
	var b strings.Builder
	head := startNames(&b, name, size)
	return partitionEqual(&b, head, node, moduleAreaMM2, k, scheme, d2d, quantity), nil
}

// The separators of the names of an equal partition's i-th chiplet:
// module "<name>-part-<i>", chiplet "<name>-chiplet-<i>".
const partSep, chipletSep = "-part-", "-chiplet-"

// partitionEqual is PartitionEqual's body for a buildable partition.
//
// This constructor runs once per sweep candidate, so it makes three
// allocations whatever k is: the placements, one backing Module array
// sliced per chiplet, and b's buffer, sized up front, holding all 2k
// names ("<name>-part-<i><name>-chiplet-<i>" for each i) after the
// len(head) bytes of name it already holds. Each name is a substring
// of the builder's string, and the system name is the first module
// name's prefix; bytes already written never change, so earlier
// substrings stay valid.
func partitionEqual(b *strings.Builder, head, node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) System {
	per := moduleAreaMM2 / float64(k)
	var seq [20]byte
	placements := make([]Placement, k)
	modules := make([]Module, k)
	for i := range placements {
		digits := strconv.AppendInt(seq[:0], int64(i+1), 10)
		start := 0 // the first module name starts with head itself
		if i > 0 {
			start = b.Len()
			b.WriteString(head)
		}
		b.WriteString(partSep)
		b.Write(digits)
		mid := b.Len()
		b.WriteString(head)
		b.WriteString(chipletSep)
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
	return System{Name: head, Scheme: scheme, Placements: placements, Quantity: quantity}
}

// startNames reserves size bytes in an empty builder, writes name into
// it and returns the builder's copy of name. A byte-slice name goes
// through a stack buffer in chunks: converting it to a string would
// allocate a second copy. The constructors' bodies are not generic:
// compiled for a []byte name, a generic body did not inline its
// builder calls, which cost more per point than the allocation saved.
func startNames[S ~string | ~[]byte](b *strings.Builder, name S, size int) string {
	b.Grow(size)
	var chunk [64]byte
	for rest := name; len(rest) > 0; {
		n := copy(chunk[:], rest)
		b.Write(chunk[:n])
		rest = rest[n:]
	}
	return b.String()
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
