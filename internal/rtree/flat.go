package rtree

// flat is the layout Build writes and the searches read: the tree as a
// handful of contiguous arrays, so a node visit is a linear pass over
// floats instead of a chase through per-child rectangles and per-entry
// point slices. Node 0 is the root; an empty tree has no nodes.
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
