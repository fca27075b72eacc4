package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Entry is one indexed point with its caller-assigned identifier.
type Entry struct {
	ID    int
	Point []float64
}

// nodeSize is the fan-out: every node but the last of its level holds
// exactly this many entries or children.
const nodeSize = 32

// Tree is an immutable R-tree over points, bulk-loaded by Build. Any
// number of goroutines may search one Tree at once.
type Tree struct {
	flat
	rect   Rect // the root's bounding rectangle; zero for the empty tree
	height int
}

// Build packs the entries into a tree by Sort-Tile-Recursive
// (Leutenegger et al., ICDE 1997): the points are sorted into slabs
// dimension by dimension, in their stored order, and cut into full
// leaves of nodeSize; each level above is packed the same way over the
// centres of its children's rectangles, until one node is left. Every
// sort breaks ties by id (above the leaves, by position in the level
// below), so for distinct ids the layout is a function of the entry set
// alone, whatever order the entries come in. Build copies the points.
func Build(dim int, entries []Entry) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: dimension must be positive, got %d", dim)
	}
	t := &Tree{flat: flat{dim: dim}}
	if len(entries) == 0 {
		return t, nil
	}
	// A level's items are boxes, 2*dim floats each, min and max
	// interleaved by dimension; an entry is the box of its point.
	boxes := make([]float64, 0, len(entries)*2*dim)
	keys := make([]int, len(entries))
	for i, e := range entries {
		if len(e.Point) != dim {
			return nil, fmt.Errorf("rtree: entry %d has dim %d, want %d", e.ID, len(e.Point), dim)
		}
		for d, x := range e.Point {
			if math.IsNaN(x) {
				return nil, fmt.Errorf("rtree: entry %d is NaN in dim %d", e.ID, d)
			}
			boxes = append(boxes, x, x)
		}
		keys[i] = e.ID
	}
	// levels[0] tiles the entries, levels[h] the nodes of levels[h-1].
	levels := []level{tile(boxes, keys, dim)}
	for {
		below := levels[len(levels)-1].boxes
		if len(below) == 2*dim {
			break
		}
		keys = keys[:len(below)/(2*dim)]
		for j := range keys {
			keys[j] = j
		}
		levels = append(levels, tile(below, keys, dim))
	}
	root := levels[len(levels)-1].boxes
	t.rect = Rect{Min: make([]float64, dim), Max: make([]float64, dim)}
	for d := 0; d < dim; d++ {
		t.rect.Min[d], t.rect.Max[d] = root[2*d], root[2*d+1]
	}
	t.height = len(levels)
	t.lay(levels, entries)
	return t, nil
}

// level is one level of the packing: the order in which its nodes take
// the items below (node j takes order[j*nodeSize:(j+1)*nodeSize]), and
// the nodes' bounding boxes.
type level struct {
	order []int32
	boxes []float64
}

// tile orders the items by Sort-Tile-Recursive and cuts the order into
// nodes. keys breaks ties.
func tile(items []float64, keys []int, dim int) level {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slab(order, items, keys, dim, 0)
	boxes := make([]float64, 0, (len(order)+nodeSize-1)/nodeSize*2*dim)
	for first := 0; first < len(order); first += nodeSize {
		members := order[first:min(first+nodeSize, len(order))]
		for d := 0; d < dim; d++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, m := range members {
				b := items[int(m)*2*dim+2*d:]
				lo, hi = math.Min(lo, b[0]), math.Max(hi, b[1])
			}
			boxes = append(boxes, lo, hi)
		}
	}
	return level{order: order, boxes: boxes}
}

// slab sorts order by the items' centres in dimension d and, before the
// last dimension, cuts it into ⌈P^(1/(dim−d))⌉ slabs of whole nodes (P
// nodes in all) and tiles each by the next dimension. Only the last
// node of the whole order can be short.
func slab(order []int32, items []float64, keys []int, dim, d int) {
	// The centre's order is that of min+max; halving would change nothing.
	centre := func(i int32) float64 { return items[int(i)*2*dim+2*d] + items[int(i)*2*dim+2*d+1] }
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(centre(a), centre(b)); c != 0 {
			return c
		}
		return cmp.Compare(keys[a], keys[b])
	})
	if d == dim-1 {
		return
	}
	nodes := (len(order) + nodeSize - 1) / nodeSize
	slabs := int(math.Ceil(math.Pow(float64(nodes), 1/float64(dim-d))))
	per := (nodes + slabs - 1) / slabs * nodeSize
	for first := 0; first < len(order); first += per {
		slab(order[first:min(first+per, len(order))], items, keys, dim, d+1)
	}
}

// lay writes the packed levels into the flat layout, root first and
// then level by level, each node's children in its tile order. A
// node's child slots are therefore contiguous and child slot s holds
// node s+1, and the leaves' entries lie in the order the leaves do.
func (t *Tree) lay(levels []level, entries []Entry) {
	f, dim := &t.flat, t.dim
	f.ids = make([]int, 0, len(entries))
	f.coords = make([]float64, 0, len(entries)*dim)
	// at lists one level's nodes in layout order, by index in their level.
	at := []int32{0}
	for h := len(levels) - 1; h >= 0; h-- {
		order := levels[h].order
		var next []int32
		for _, j := range at {
			members := order[int(j)*nodeSize : min(int(j+1)*nodeSize, len(order))]
			if h == 0 {
				f.nodes = append(f.nodes, flatNode{first: len(f.ids), count: int32(len(members)), leaf: true})
				for _, m := range members {
					f.ids = append(f.ids, entries[m].ID)
					f.coords = append(f.coords, entries[m].Point...)
				}
				continue
			}
			f.nodes = append(f.nodes, flatNode{first: len(f.child), count: int32(len(members))})
			below := levels[h-1].boxes
			for _, m := range members {
				f.child = append(f.child, int32(len(f.child)+1))
				f.bounds = append(f.bounds, below[int(m)*2*dim:int(m+1)*2*dim]...)
			}
			next = append(next, members...)
		}
		at = next
	}
}

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return len(t.ids) }

// Height returns the tree height (0 for the empty tree, 1 for a single
// leaf).
func (t *Tree) Height() int { return t.height }
