// Package rtree implements an immutable, in-memory R-tree over points,
// bulk-loaded by Sort-Tile-Recursive packing (Leutenegger et al., ICDE
// 1997) into full nodes of 32, with range search and nearest-neighbour
// search with MINDIST pruning. A tree never changes: a caller whose
// points change builds a new one, which takes milliseconds for tens of
// thousands of points.
//
// Two features serve the similarity-query framework specifically:
//
//   - Searches accept an optional per-dimension affine transformation
//     (a stretch vector and a translation vector) and answer over the
//     image of the index under it — Algorithm 1 of the companion
//     implementation paper — so one index serves many safe
//     transformations without being rebuilt. The transformation is
//     inverted onto the query once per search instead of being applied
//     to every rectangle and point met; the search loops themselves run
//     over the tree's flat array layout and allocate nothing.
//   - Every search reports node-access counts so the experiments can
//     compare transformed and plain traversals.
package rtree

import (
	"fmt"
	"math"
)

// Rect is an n-dimensional axis-aligned rectangle.
type Rect struct {
	Min, Max []float64
}

// NewRect validates lo <= hi in every dimension.
func NewRect(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("rtree: dim mismatch %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("rtree: min %g > max %g in dim %d", lo[i], hi[i], i)
		}
	}
	return Rect{Min: lo, Max: hi}, nil
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Min) }

// Overlaps reports whether two rectangles intersect (closed).
func (r Rect) Overlaps(o Rect) bool {
	for i := range r.Min {
		if r.Min[i] > o.Max[i] || r.Max[i] < o.Min[i] {
			return false
		}
	}
	return true
}

// Contains reports whether r contains point p (closed).
func (r Rect) Contains(p []float64) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// MinDist returns the squared MINDIST from point p to the rectangle
// (Roussopoulos et al.): 0 when p is inside, otherwise the squared
// distance to the nearest face.
func (r Rect) MinDist(p []float64) float64 {
	d := 0.0
	for i := range p {
		switch {
		case p[i] < r.Min[i]:
			d += (r.Min[i] - p[i]) * (r.Min[i] - p[i])
		case p[i] > r.Max[i]:
			d += (p[i] - r.Max[i]) * (p[i] - r.Max[i])
		}
	}
	return d
}

// Affine is a per-dimension linear transformation x -> A*x + B — the
// safe transformation class of the framework restricted to the real
// feature space (Theorem 1/2 of the companion paper). Negative and zero
// stretches are allowed.
//
// Circular optionally marks dimensions as angles with period 2π (the
// phase dimensions of the polar feature space of Theorem 3). Only
// rotations and the reflection map a circle onto itself, so a circular
// dimension takes A = ±1 (or 0); its images are wrapped into [-π, π),
// and a query interval in it is read as an arc: centre (Min+Max)/2,
// half-width (Max-Min)/2, so it may run past ±π instead of being
// widened to the full circle at the seam. The indexed coordinates of a
// circular dimension must lie in [-π, π].
type Affine struct {
	A, B     []float64
	Circular []bool // nil means no circular dimensions
}

// Identity returns the identity transformation in dim dimensions.
func Identity(dim int) *Affine {
	a := make([]float64, dim)
	b := make([]float64, dim)
	for i := range a {
		a[i] = 1
	}
	return &Affine{A: a, B: b}
}

// Validate checks dimensions and that every coefficient is finite.
func (t *Affine) Validate(dim int) error {
	if len(t.A) != dim || len(t.B) != dim {
		return fmt.Errorf("rtree: affine dim %d/%d, want %d", len(t.A), len(t.B), dim)
	}
	if t.Circular != nil && len(t.Circular) != dim {
		return fmt.Errorf("rtree: circular mask dim %d, want %d", len(t.Circular), dim)
	}
	for i, a := range t.A {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(t.B[i]) || math.IsInf(t.B[i], 0) {
			return fmt.Errorf("rtree: affine dim %d is not finite (%g, %g)", i, a, t.B[i])
		}
		if t.circular(i) && a != 1 && a != -1 && a != 0 {
			return fmt.Errorf("rtree: circular dim %d has stretch %g, want 1, -1 or 0", i, a)
		}
	}
	return nil
}

func (t *Affine) circular(i int) bool { return t.Circular != nil && t.Circular[i] }

// WrapAngle maps x into [-π, π).
func WrapAngle(x float64) float64 {
	x = math.Mod(x+math.Pi, 2*math.Pi)
	if x < 0 {
		x += 2 * math.Pi
	}
	return x - math.Pi
}

// Apply maps a point, wrapping circular dimensions into [-π, π). The
// searches never call it — they pull the query back through the
// transformation once instead (see probe) — it states what they compute.
func (t *Affine) Apply(p []float64) []float64 {
	dst := make([]float64, len(p))
	for i := range p {
		dst[i] = t.A[i]*p[i] + t.B[i]
		if t.circular(i) {
			dst[i] = WrapAngle(dst[i])
		}
	}
	return dst
}
