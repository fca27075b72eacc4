package index

import "repro/internal/seq"

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

// ByteSig is a byte-frequency signature of a string: sixteen saturating
// 4-bit counters, counter c&15 counting the occurrences of byte c. It
// is the bag-distance filter in one word: cheap enough to keep per row
// and compare before every verification.
type ByteSig uint64

// NewByteSig returns the signature of s.
func NewByteSig(s string) ByteSig {
	var sig uint64
	for i := 0; i < len(s); i++ {
		sh := uint(s[i]&15) * 4
		if sig>>sh&15 != 15 {
			sig += 1 << sh
		}
	}
	return ByteSig(sig)
}

// LowerBound returns a lower bound on the unit edit distance between
// the strings a and b were taken from. An insertion raises one counter,
// a deletion lowers one and a substitution does at most one of each, so
// turning one bag into the other takes at least as many edits as the
// larger of the total surplus and the total deficit; merging bytes into
// sixteen classes and saturating at 15 only shrink both sums.
func (a ByteSig) LowerBound(b ByteSig) int {
	const lo4 = 0x0F0F0F0F0F0F0F0F
	p0, n0 := laneDiffs(uint64(a)&lo4, uint64(b)&lo4)
	p1, n1 := laneDiffs(uint64(a)>>4&lo4, uint64(b)>>4&lo4)
	p, n := p0+p1, n0+n1
	if n > p {
		return int(n)
	}
	return int(p)
}

// laneDiffs treats x and y as eight byte lanes holding 0..15 and returns
// the sums of the lane differences x-y that are positive and of those
// that are negative (as a magnitude).
func laneDiffs(x, y uint64) (pos, neg uint64) {
	const (
		lo4  = 0x0F0F0F0F0F0F0F0F
		b16  = 0x1010101010101010
		ones = 0x0101010101010101
	)
	t := (x | b16) - y           // lane: 16 + x - y, in 1..31, so no borrow crosses lanes
	ge := (t >> 4 & ones) * 0x0F // 0x0F in the lanes where x >= y
	d := t & lo4                 // x - y there, 16 - (y - x) elsewhere
	pos = (d & ge) * ones >> 56  // the multiply sums the lanes into the top byte (<= 120)
	neg = ((b16 - d) & lo4 &^ ge) * ones >> 56
	return pos, neg
}
