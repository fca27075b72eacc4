// Package rtree implements an in-memory R*-tree (Beckmann et al.,
// SIGMOD 1990): insertion with forced reinsertion, the R* split
// (margin-driven axis choice, overlap-driven index choice), range
// search and nearest-neighbour search with MINDIST pruning.
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
//     over a flat copy of the tree and allocate nothing.
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

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Min: lo, Max: hi}
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Min) }

// Copy returns a deep copy.
func (r Rect) Copy() Rect {
	lo := make([]float64, len(r.Min))
	hi := make([]float64, len(r.Max))
	copy(lo, r.Min)
	copy(hi, r.Max)
	return Rect{Min: lo, Max: hi}
}

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

// ContainsRect reports whether r fully contains o.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Area returns the hyper-volume.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the summed edge lengths (the R* split criterion).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Enlarged returns the minimum rectangle covering r and o.
func (r Rect) Enlarged(o Rect) Rect {
	out := r.Copy()
	for i := range out.Min {
		if o.Min[i] < out.Min[i] {
			out.Min[i] = o.Min[i]
		}
		if o.Max[i] > out.Max[i] {
			out.Max[i] = o.Max[i]
		}
	}
	return out
}

// Enlargement returns the area increase of covering o as well.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Enlarged(o).Area() - r.Area()
}

// OverlapArea returns the volume of the intersection.
func (r Rect) OverlapArea(o Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], o.Min[i])
		hi := math.Min(r.Max[i], o.Max[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the rectangle's center point.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Min))
	for i := range c {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
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
