// Package seq provides the sequence substrate of the similarity-query
// framework: symbols, alphabets, random sequence generation and the
// string-decomposition utilities (q-grams, symbol histograms) used by the
// candidate filters in internal/index.
//
// Sequences throughout the repository are plain Go strings whose symbols
// are single bytes. The PODS'95 framework assumes a finite alphabet; one
// byte per symbol keeps slicing, hashing and map keys trivial while
// supporting alphabets of up to 256 symbols.
package seq

import (
	"fmt"
	"math/rand"
	"strings"
)

// Alphabet is an ordered set of distinct byte symbols.
type Alphabet struct {
	symbols []byte
	index   [256]int // symbol -> position+1, 0 means absent
}

// NewAlphabet builds an alphabet from the distinct bytes of s, in first
// occurrence order. It returns an error if s is empty.
func NewAlphabet(s string) (*Alphabet, error) {
	if s == "" {
		return nil, fmt.Errorf("seq: empty alphabet")
	}
	a := &Alphabet{}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if a.index[c] != 0 {
			continue
		}
		a.symbols = append(a.symbols, c)
		a.index[c] = len(a.symbols)
	}
	return a, nil
}

// MustAlphabet is NewAlphabet that panics on error; for tests and fixed
// literals.
func MustAlphabet(s string) *Alphabet {
	a, err := NewAlphabet(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Size returns the number of distinct symbols.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Symbols returns the symbols in order. The caller must not modify the
// returned slice.
func (a *Alphabet) Symbols() []byte { return a.symbols }

// Contains reports whether c is a symbol of the alphabet.
func (a *Alphabet) Contains(c byte) bool { return a.index[c] != 0 }

// Index returns the position of c in the alphabet, or -1 if absent.
func (a *Alphabet) Index(c byte) int { return a.index[c] - 1 }

// ValidSeq reports whether every symbol of s belongs to the alphabet.
func (a *Alphabet) ValidSeq(s string) bool {
	for i := 0; i < len(s); i++ {
		if !a.Contains(s[i]) {
			return false
		}
	}
	return true
}

// String returns the symbols as a string.
func (a *Alphabet) String() string { return string(a.symbols) }

// Random returns a uniformly random sequence of length n over the
// alphabet, using rng.
func (a *Alphabet) Random(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(a.symbols[rng.Intn(len(a.symbols))])
	}
	return b.String()
}

// PlantedWords returns count non-empty words of 4-14 random symbols, a
// quarter of them 1-2 random edits of an earlier word, so similarity
// queries over the list have near-duplicates to find. It is the word
// list of `datagen -kind words`; tests and benchmarks that must see the
// benchmark's data call it with the same seed.
func (a *Alphabet) PlantedWords(rng *rand.Rand, count int) []string {
	made := make([]string, 0, count)
	for len(made) < count {
		var w string
		if len(made) > 0 && rng.Intn(4) == 0 {
			w = a.RandomEdits(rng, made[rng.Intn(len(made))], 1+rng.Intn(2))
		} else {
			w = a.Random(rng, 4+rng.Intn(11))
		}
		if w != "" {
			made = append(made, w)
		}
	}
	return made
}

// RandomEdits returns a copy of s with k random single-symbol edits
// (insertions, deletions or substitutions) applied, drawing replacement
// symbols from the alphabet. It is used by workload generators to plant
// near-duplicates at a known edit radius. The result's true distance from
// s is at most k.
func (a *Alphabet) RandomEdits(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0: // delete
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case op == 1: // insert
			p := rng.Intn(len(b) + 1)
			c := a.symbols[rng.Intn(len(a.symbols))]
			b = append(b[:p], append([]byte{c}, b[p:]...)...)
		case len(b) > 0: // substitute
			p := rng.Intn(len(b))
			b[p] = a.symbols[rng.Intn(len(a.symbols))]
		}
	}
	return string(b)
}

// QGrams returns the multiset of q-grams of s as a map from gram to
// multiplicity. Sequences shorter than q have no q-grams.
func QGrams(s string, q int) map[string]int {
	grams := make(map[string]int)
	if q <= 0 || len(s) < q {
		return grams
	}
	for i := 0; i+q <= len(s); i++ {
		grams[s[i:i+q]]++
	}
	return grams
}

// QGramOverlap returns the size of the multiset intersection of the
// q-gram profiles of x and y. The classic q-gram filter states that if
// the unit-cost edit distance between x and y is at most k then the
// overlap is at least max(len(x),len(y)) - q + 1 - k*q.
func QGramOverlap(x, y string, q int) int {
	gx := QGrams(x, q)
	gy := QGrams(y, q)
	if len(gy) < len(gx) {
		gx, gy = gy, gx
	}
	overlap := 0
	for g, cx := range gx {
		if cy := gy[g]; cy < cx {
			overlap += cy
		} else {
			overlap += cx
		}
	}
	return overlap
}

// Histogram counts the multiplicity of every byte symbol in s.
type Histogram [256]int

// NewHistogram returns the symbol histogram of s.
func NewHistogram(s string) Histogram {
	var h Histogram
	for i := 0; i < len(s); i++ {
		h[s[i]]++
	}
	return h
}

// L1Dist returns the L1 distance between two histograms. For unit-cost
// edit distance, ed(x,y) >= L1(hist(x),hist(y))/2, which makes the
// histogram an admissible pruning bound (the "count filter").
func (h Histogram) L1Dist(o Histogram) int {
	d := 0
	for i := range h {
		if h[i] > o[i] {
			d += h[i] - o[i]
		} else {
			d += o[i] - h[i]
		}
	}
	return d
}

// AbsDiff returns |a-b| for ints.
func AbsDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// CommonPrefix returns the length of the longest common prefix of x and y.
func CommonPrefix(x, y string) int {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	i := 0
	for i < n && x[i] == y[i] {
		i++
	}
	return i
}

// CommonSuffix returns the length of the longest common suffix of x and y.
func CommonSuffix(x, y string) int {
	i := 0
	for i < len(x) && i < len(y) && x[len(x)-1-i] == y[len(y)-1-i] {
		i++
	}
	return i
}

// Reverse returns s reversed.
func Reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// Replace returns s with the span [i, i+len(old)) replaced by new. It
// panics if the span is out of bounds or does not equal old; callers in
// the rewrite engine have already matched old at i.
func Replace(s string, i int, old, new string) string {
	if i < 0 || i+len(old) > len(s) || s[i:i+len(old)] != old {
		panic(fmt.Sprintf("seq: Replace(%q, %d, %q, %q): span mismatch", s, i, old, new))
	}
	var b strings.Builder
	b.Grow(len(s) - len(old) + len(new))
	b.WriteString(s[:i])
	b.WriteString(new)
	b.WriteString(s[i+len(old):])
	return b.String()
}
