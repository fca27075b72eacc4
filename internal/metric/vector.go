package metric

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a dense float32 embedding — the continuous column type of
// the relation layer. float32 is the storage and kernel element type
// (half the memory traffic of float64, the dominant cost of every
// vector kernel); accumulation inside the kernels runs in float64 with
// a fixed reduction order so results are deterministic across every
// execution path.
type Vector []float32

var inf = math.Inf(1)

// Clone returns a copy of v (nil stays nil).
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Format renders v in the query language's canonical vector-literal
// syntax: '[' + comma-separated shortest-round-trip float32 values +
// ']', no spaces. Parse(Format(v)) reproduces v bit for bit, which is
// what lets the WAL, the relation text codec and the wire protocol all
// carry vectors as text without drift.
func Format(v Vector) string {
	var b strings.Builder
	b.Grow(2 + 10*len(v))
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
	}
	b.WriteByte(']')
	return b.String()
}

// Parse reads the canonical vector-literal syntax (whitespace around
// components is tolerated). Components must be finite — NaN and the
// infinities are rejected, so every stored vector has well-defined
// distances — and the vector must be non-empty. It walks the literal
// once, component by component, after counting the commas that size
// the result, so a literal costs one allocation besides its errors.
func Parse(s string) (Vector, error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || t[0] != '[' || t[len(t)-1] != ']' {
		return nil, fmt.Errorf("metric: vector literal must be bracketed: %q", s)
	}
	body := strings.TrimSpace(t[1 : len(t)-1])
	if body == "" {
		return nil, fmt.Errorf("metric: empty vector literal")
	}
	out := make(Vector, 0, strings.Count(body, ",")+1)
	for more := true; more; {
		var p string
		p, body, more = strings.Cut(body, ",")
		p = strings.TrimSpace(p)
		f, err := strconv.ParseFloat(p, 32)
		if err != nil {
			return nil, fmt.Errorf("metric: bad vector component %q: %v", p, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("metric: vector components must be finite, got %q", p)
		}
		out = append(out, float32(f))
	}
	return out, nil
}

// Valid reports whether every component of v is finite. Ingest paths
// reject invalid vectors up front so no NaN ever reaches a kernel.
func Valid(v Vector) bool {
	for _, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
