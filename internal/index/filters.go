package index

import (
	"math/bits"

	"repro/internal/seq"
)

// LengthIndex buckets entries by length: at radius k with unit-weight
// length changes, answers satisfy |len(s) - len(query)| <= k. Works with
// any Verifier whose distance charges at least 1 per net length change
// (unit edits do). Not safe for concurrent mutation.
type LengthIndex struct {
	buckets map[int][]Entry
	size    int
}

// NewLengthIndex returns an empty index.
func NewLengthIndex() *LengthIndex {
	return &LengthIndex{buckets: make(map[int][]Entry)}
}

// Len returns the number of indexed entries.
func (ix *LengthIndex) Len() int { return ix.size }

// Insert adds an entry.
func (ix *LengthIndex) Insert(id int, s string) {
	ix.size++
	ix.buckets[len(s)] = append(ix.buckets[len(s)], Entry{ID: id, S: s})
}

// Range returns entries within radius of the query per the verifier,
// visiting only the plausible length buckets.
func (ix *LengthIndex) Range(query string, radius float64, v Verifier) ([]Match, Stats) {
	var out []Match
	var st Stats
	k := int(radius)
	for l := len(query) - k; l <= len(query)+k; l++ {
		for _, e := range ix.buckets[l] {
			st.Candidates++
			st.Verifications++
			if d, ok := v(query, e.S, radius); ok {
				out = append(out, Match{ID: e.ID, S: e.S, Dist: d})
			}
		}
	}
	return out, st
}

// QGramIndex is an inverted index from q-grams to entries implementing
// the count filter: if ed(x,y) <= k then the q-gram profiles of x and y
// share at least |x| - q + 1 - k·q grams. Entries failing that bound are
// pruned without verification. Not safe for concurrent mutation.
type QGramIndex struct {
	q        int
	postings map[string]map[int]int // gram -> entry id -> multiplicity
	entries  map[int]Entry
	short    []Entry // entries shorter than q never appear in postings
}

// NewQGramIndex returns an empty index with gram size q (q >= 1).
func NewQGramIndex(q int) *QGramIndex {
	if q < 1 {
		q = 2
	}
	return &QGramIndex{
		q:        q,
		postings: make(map[string]map[int]int),
		entries:  make(map[int]Entry),
	}
}

// Q returns the gram size.
func (ix *QGramIndex) Q() int { return ix.q }

// Len returns the number of indexed entries.
func (ix *QGramIndex) Len() int { return len(ix.entries) + len(ix.short) }

// Insert adds an entry.
func (ix *QGramIndex) Insert(id int, s string) {
	if len(s) < ix.q {
		ix.short = append(ix.short, Entry{ID: id, S: s})
		return
	}
	ix.entries[id] = Entry{ID: id, S: s}
	for g, n := range seq.QGrams(s, ix.q) {
		m, ok := ix.postings[g]
		if !ok {
			m = make(map[int]int)
			ix.postings[g] = m
		}
		m[id] = n
	}
}

// Range returns entries within radius of the query per the verifier.
// The count filter uses the unit-edit bound, so radius is interpreted
// in unit edits for pruning; verification uses the supplied verifier,
// keeping the result exact for any verifier at least as strict.
func (ix *QGramIndex) Range(query string, radius float64, v Verifier) ([]Match, Stats) {
	var out []Match
	var st Stats
	k := int(radius)
	threshold := len(query) - ix.q + 1 - k*ix.q

	verify := func(e Entry) {
		st.Verifications++
		if d, ok := v(query, e.S, radius); ok {
			out = append(out, Match{ID: e.ID, S: e.S, Dist: d})
		}
	}

	// Short entries have no grams; the filter says nothing about them.
	for _, e := range ix.short {
		if seq.AbsDiff(len(e.S), len(query)) <= k {
			st.Candidates++
			verify(e)
		}
	}

	if threshold <= 0 {
		// Filter vacuous: verify everything in the length window.
		for _, e := range ix.entries {
			if seq.AbsDiff(len(e.S), len(query)) <= k {
				st.Candidates++
				verify(e)
			}
		}
		return out, st
	}

	overlap := make(map[int]int)
	for g, nq := range seq.QGrams(query, ix.q) {
		for id, ne := range ix.postings[g] {
			if ne < nq {
				overlap[id] += ne
			} else {
				overlap[id] += nq
			}
		}
	}
	for id, ov := range overlap {
		if ov < threshold {
			continue
		}
		e := ix.entries[id]
		if seq.AbsDiff(len(e.S), len(query)) > k {
			continue
		}
		st.Candidates++
		verify(e)
	}
	return out, st
}

// ByteSig is a byte-frequency signature of a string, thermometer
// coded: byte c falls in class c&15, and class k keeps its count, capped
// at sigCap, in unary in byte lane k%8 of word k/8 — the low count bits
// of the lane are set. A signature's surplus over another's is then a
// popcount: the bag-distance filter in two words, cheap enough to keep
// per row and compare before every verification.
type ByteSig [2]uint64

// sigCap is the count a class lane saturates at: one bit per occurrence
// in an eight-bit lane.
const sigCap = 8

// NewByteSig returns the signature of s.
func NewByteSig(s string) ByteSig {
	var n [16]uint
	for i := 0; i < len(s); i++ {
		n[s[i]&15]++
	}
	var sig ByteSig
	for k, c := range n {
		sig[k>>3] |= (1<<min(c, sigCap) - 1) << (k & 7 * 8)
	}
	return sig
}

// Excess returns the summed per-class surplus of q's counts over s's,
// each count capped at sigCap.
//
// It bounds the unit edit distance from a string x of length m with
// signature q to a string y of length n with signature s from below
// once the length difference is added:
//
//	Excess(q, s) + max(0, n-m) <= Levenshtein(x, y)
//
// Over the uncapped class counts, surplus - deficit = m - n, and an
// insertion raises one count, a deletion lowers one and a substitution
// does at most one of each, so the distance is at least the larger of
// the two sums: the surplus when m > n, the deficit (the surplus plus
// n - m) otherwise. Capping only shrinks the surplus. With no class
// counted above sigCap in either string the left side is exactly that
// larger sum, the bag distance over the sixteen classes.
func (q ByteSig) Excess(s ByteSig) int {
	return bits.OnesCount64(q[0]&^s[0]) + bits.OnesCount64(q[1]&^s[1])
}

// NextWithin returns the first index i >= from at which
// q.Excess(sigs[i]) <= thr, or len(sigs) when there is none: the scan
// kernel of the length-band walk, which keeps q and thr in registers
// across the skipped rows.
func NextWithin(sigs []ByteSig, q ByteSig, thr, from int) int {
	for i, s := range sigs[from:] {
		if q.Excess(s) <= thr {
			return from + i
		}
	}
	return len(sigs)
}
