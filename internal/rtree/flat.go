package rtree

// flat is the read layout the searches run on: the pointer tree that
// insertion maintains, copied into a handful of contiguous arrays so a
// node visit is a linear pass over floats instead of a chase through
// per-child rectangles and per-entry point slices. Node 0 is the root;
// an empty tree has no nodes.
//
// A flat layout is immutable. Insert drops it (the next search, or
// Pack, builds a fresh one), so it never needs patching in place.
type flat struct {
	dim   int
	nodes []flatNode
	// Internal nodes own a run of child slots: the child's node index,
	// and its bounding rectangle as 2*dim floats, min and max
	// interleaved by dimension.
	child  []int32
	bounds []float64
	// Leaves own a run of entry slots: the id, and dim coordinates.
	ids    []int
	coords []float64
}

// flatNode locates a node's run of slots: [first, first+count) of the
// child arrays for an internal node, of the entry arrays for a leaf.
type flatNode struct {
	first int
	count int32
	leaf  bool
}

// leafCoords returns a leaf's entries: dim coordinates each, entry i having
// id f.ids[n.first+i].
func (f *flat) leafCoords(n flatNode) []float64 {
	return f.coords[n.first*f.dim : (n.first+int(n.count))*f.dim]
}

// childBounds returns an internal node's child rectangles: 2*dim floats
// each, child i being node f.child[n.first+i].
func (f *flat) childBounds(n flatNode) []float64 {
	return f.bounds[n.first*2*f.dim : (n.first+int(n.count))*2*f.dim]
}

// Pack builds the flat read layout now rather than on the next search,
// so a bulk loader pays for it once, outside its query timings.
func (t *Tree) Pack() { t.flatLayout() }

// flatLayout returns the current layout, building it if an Insert has
// dropped it. Concurrent searches may race to get here; one builds.
func (t *Tree) flatLayout() *flat {
	if f := t.flat.Load(); f != nil {
		return f
	}
	t.flatMu.Lock()
	defer t.flatMu.Unlock()
	if f := t.flat.Load(); f != nil {
		return f
	}
	f := &flat{dim: t.dim}
	if t.root != nil {
		f.ids = make([]int, 0, t.size)
		f.coords = make([]float64, 0, t.size*t.dim)
		f.add(t.root)
	}
	t.flat.Store(f)
	return f
}

// add copies the subtree under n and returns n's node index. A node's
// child slots are laid out before any child is descended into, so they
// stay contiguous.
func (f *flat) add(n *node) int32 {
	idx := len(f.nodes)
	f.nodes = append(f.nodes, flatNode{})
	if n.leaf {
		f.nodes[idx] = flatNode{first: len(f.ids), count: int32(len(n.entries)), leaf: true}
		for _, e := range n.entries {
			f.ids = append(f.ids, e.ID)
			f.coords = append(f.coords, e.Point...)
		}
		return int32(idx)
	}
	first := len(f.child)
	f.nodes[idx] = flatNode{first: first, count: int32(len(n.children))}
	for _, c := range n.children {
		f.child = append(f.child, 0)
		for d := 0; d < f.dim; d++ {
			f.bounds = append(f.bounds, c.rect.Min[d], c.rect.Max[d])
		}
	}
	for i, c := range n.children {
		f.child[first+i] = f.add(c)
	}
	return int32(idx)
}
