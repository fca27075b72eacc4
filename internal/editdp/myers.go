package editdp

// Bit-parallel (Myers) unit-cost edit distance. The classical DP fills
// |x|·|y| cells one comparison at a time; Myers' 1999 reformulation
// encodes a whole DP column as two bit vectors of vertical deltas
// (+1/-1) and advances the column with ~15 word operations per text
// character, so patterns up to 64 bytes cost O(|text|) word ops and
// longer patterns cost O(|text|·⌈|pattern|/64⌉) (Hyyrö's block chain).
//
// Three layers are exposed:
//
//   - MyersDistance / MyersWithin: one-shot kernels, drop-in
//     replacements for Levenshtein / LevenshteinWithin with
//     bit-identical results (the parity fuzzer pins this).
//   - QueryDP: a query-scoped kernel that builds the pattern-equality
//     bitmask table (PEQ) ONCE and amortizes it across every candidate
//     a length-view walk, trie traversal or vectorized filter block
//     verifies — the millions-of-comparisons regime where PEQ
//     construction would otherwise dominate.
//   - QueryDP.DistanceRows: the same recurrence over up to RowLanes
//     equal-length texts at once, one 16-bit lane of a word per text
//     (Hyyrö, Fredriksson & Navarro's packing of short patterns), for
//     patterns of at most 15 bytes — a length band's surviving rows.
//
// Levenshtein and LevenshteinWithin stay as the scalar references the
// parity fuzzer and the index tests compare these kernels against.

import "sync"

// MyersDistance returns the unit-cost edit distance between x and y,
// bit-identical to Levenshtein(x, y).
func MyersDistance(x, y string) int {
	// Strip common affixes; they never participate in an optimal script.
	for len(x) > 0 && len(y) > 0 && x[0] == y[0] {
		x, y = x[1:], y[1:]
	}
	for len(x) > 0 && len(y) > 0 && x[len(x)-1] == y[len(y)-1] {
		x, y = x[:len(x)-1], y[:len(y)-1]
	}
	if len(x) == 0 {
		return len(y)
	}
	if len(y) == 0 {
		return len(x)
	}
	if len(y) > len(x) {
		x, y = y, x
	}
	// y is the (shorter) pattern: fewer blocks, likelier single-word.
	if len(y) <= wordBits {
		var peq [256]uint64
		for i := 0; i < len(y); i++ {
			peq[y[i]] |= 1 << uint(i)
		}
		return myersDistance1(&peq, len(y), x)
	}
	return NewQueryDP(y).Distance(x)
}

// MyersWithin returns the unit-cost edit distance between x and y if it
// is at most k, and ok=false otherwise — bit-identical to
// LevenshteinWithin(x, y, k).
func MyersWithin(x, y string, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	if d := len(x) - len(y); d > k || -d > k {
		// Length skew alone exceeds the budget: fail before any DP work.
		return 0, false
	}
	for len(x) > 0 && len(y) > 0 && x[0] == y[0] {
		x, y = x[1:], y[1:]
	}
	for len(x) > 0 && len(y) > 0 && x[len(x)-1] == y[len(y)-1] {
		x, y = x[:len(x)-1], y[:len(y)-1]
	}
	if len(y) > len(x) {
		x, y = y, x
	}
	if len(y) == 0 {
		return len(x), len(x) <= k
	}
	if len(y) <= wordBits {
		var peq [256]uint64
		for i := 0; i < len(y); i++ {
			peq[y[i]] |= 1 << uint(i)
		}
		return myersWithin1(&peq, len(y), x, k)
	}
	return NewQueryDP(y).Within(x, k)
}

const wordBits = 64

// QueryDP is a query-scoped bit-parallel distance kernel: the PEQ
// bitmask table of the fixed pattern (the query string) is computed
// once at construction — O(|pattern|) plus one 2KB table — and every
// Distance/Within call against a candidate costs only the Myers column
// recurrence. It is the unit-cost sibling of TargetDP: one per query,
// amortized across all candidates that query verifies.
//
// A QueryDP is NOT safe for concurrent use (the block variant owns
// scratch columns); each query pipeline builds its own, and a caller
// that verifies many patterns in turn retargets one with Reset.
type QueryDP struct {
	pattern string
	m       int
	nb      int    // ⌈m/64⌉ blocks; 0 when the pattern is empty
	hmask   uint64 // bit (m-1) mod 64 of the last block: the score row
	peq     [256]uint64
	peqB    []uint64 // block PEQ, peqB[c*nb+b]; only the pattern's bits set when nb > 1
	pv, mv  []uint64 // scratch columns for the block variant
}

// NewQueryDP builds the PEQ table for the pattern.
func NewQueryDP(pattern string) *QueryDP {
	q := &QueryDP{}
	q.Reset(pattern)
	return q
}

// Reset retargets q to pattern in place; afterwards q answers exactly
// as NewQueryDP(pattern) would. Only the PEQ words the old pattern set
// are cleared, so a retarget costs O(|old| + |pattern|), not a 2KB
// table, and the block buffers are reused whenever their capacity
// allows.
func (q *QueryDP) Reset(pattern string) {
	for i := 0; i < q.m; i++ {
		if q.nb == 1 {
			q.peq[q.pattern[i]] = 0
		} else {
			q.peqB[int(q.pattern[i])*q.nb+i/wordBits] = 0
		}
	}
	m := len(pattern)
	q.pattern, q.m, q.nb, q.hmask = pattern, m, 0, 0
	if m == 0 {
		return
	}
	q.nb = (m + wordBits - 1) / wordBits
	q.hmask = 1 << (uint(m-1) % wordBits)
	if q.nb == 1 {
		for i := 0; i < m; i++ {
			q.peq[pattern[i]] |= 1 << uint(i)
		}
		return
	}
	// The cleared words above leave the whole backing array zero, so a
	// reslice within capacity needs no further clearing.
	q.peqB = grow(q.peqB, 256*q.nb)
	for i := 0; i < m; i++ {
		q.peqB[int(pattern[i])*q.nb+i/wordBits] |= 1 << (uint(i) % wordBits)
	}
	q.pv = grow(q.pv, q.nb)
	q.mv = grow(q.mv, q.nb)
}

// grow returns s resliced to length n, reallocated (zeroed) only when
// its capacity is short.
func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Pattern returns the fixed pattern string.
func (q *QueryDP) Pattern() string { return q.pattern }

// Distance returns the unit-cost edit distance from the pattern to
// text, bit-identical to Levenshtein(pattern, text).
func (q *QueryDP) Distance(text string) int {
	switch {
	case q.m == 0:
		return len(text)
	case len(text) == 0:
		return q.m
	case q.nb == 1:
		return myersDistance1(&q.peq, q.m, text)
	}
	return q.distanceBlocks(text, -1)
}

// Within returns the distance if it is at most k, ok=false otherwise —
// bit-identical to LevenshteinWithin(pattern, text, k). The kernel
// abandons the text as soon as the running last-row score cannot sink
// back under k (|D[m][j+1]-D[m][j]| <= 1 bounds the recovery rate).
func (q *QueryDP) Within(text string, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	if d := len(text) - q.m; d > k || -d > k {
		return 0, false
	}
	if q.m == 0 || len(text) == 0 {
		d := q.m + len(text) // one side is empty
		return d, d <= k     // length check above already passed
	}
	if q.nb == 1 {
		return myersWithin1(&q.peq, q.m, text, k)
	}
	d := q.distanceBlocks(text, k)
	if d < 0 || d > k {
		return 0, false
	}
	return d, true
}

// RowLanes is the most texts one DistanceRows call verifies.
const RowLanes = 4

// PacksRows reports whether DistanceRows serves texts of length n: the
// pattern must be 1–15 bytes, so a 16-bit lane holds its column plus
// the spare bit that stops the lane's carry, and n below 2^15, so a
// lane's score, at most max(m, n), cannot overflow.
func (q *QueryDP) PacksRows(n int) bool {
	return q.m >= 1 && q.m <= 15 && n < 1<<15
}

// DistanceRows sets out[i] to the distance from the pattern to
// texts[i], as Distance would, for 1–RowLanes texts of one length that
// PacksRows accepts. The texts run together, one per 16-bit lane of a
// single word. The pattern mask is repeated in every lane, and pv is
// cut to it each step, which keeps eq&pv, mh = pv&xh and mv inside it
// too: the carry of (eq&pv)+pv and the shift of mh stop in the lane's
// spare bit m. ph is left uncut; its set bits above m shift into the
// next lane's bit 0, which the boundary |low sets anyway. The scores
// are a packed counter. There is no early abandon; at m <= 15 that
// costs at most n column steps.
func (q *QueryDP) DistanceRows(texts []string, out []int) {
	const low = 0x0001000100010001 // bit 0 of every lane
	// Unused lanes repeat texts[0]; their scores are never read. (A
	// copy into an array of four costs a measurable share of a call.)
	t0, t1, t2, t3 := texts[0], texts[0], texts[0], texts[0]
	switch len(texts) {
	case 4:
		t3 = texts[3]
		fallthrough
	case 3:
		t2 = texts[2]
		fallthrough
	case 2:
		t1 = texts[1]
	}
	n := len(t0)
	mask := (uint64(1)<<uint(q.m) - 1) * low
	sh := uint(q.m - 1)
	peq := &q.peq
	pv, mv := mask, uint64(0)
	score := uint64(q.m) * low
	for i := 0; i < n; i++ {
		eq := peq[t0[i]] | peq[t1[i]]<<16 | peq[t2[i]]<<32 | peq[t3[i]]<<48
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		score += ph >> sh & low
		score -= mh >> sh & low
		ph = ph<<1 | low
		mh <<= 1
		pv = (mh | ^(xv | ph)) & mask
		mv = ph & xv
	}
	for l := range texts {
		out[l] = int(score >> (16 * uint(l)) & 0xffff)
	}
}

// myersDistance1 runs the single-word Myers recurrence: the DP column
// is two bit vectors of vertical deltas (pv: +1, mv: -1) and score
// tracks the last row D[m][j] via the horizontal delta at bit m-1.
func myersDistance1(peq *[256]uint64, m int, text string) int {
	pv, mv := ^uint64(0), uint64(0)
	score := m
	hmask := uint64(1) << uint(m-1)
	for i := 0; i < len(text); i++ {
		eq := peq[text[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&hmask != 0 {
			score++
		} else if mh&hmask != 0 {
			score--
		}
		// The |1 carries the global-alignment boundary D[0][j] = j.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myersWithin1 is myersDistance1 with the budget cutoff: once even a
// -1-per-column recovery cannot bring the score back under k, the text
// is abandoned.
func myersWithin1(peq *[256]uint64, m int, text string, k int) (int, bool) {
	pv, mv := ^uint64(0), uint64(0)
	score := m
	hmask := uint64(1) << uint(m-1)
	n := len(text)
	for i := 0; i < n; i++ {
		eq := peq[text[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&hmask != 0 {
			score++
			if score-(n-i-1) > k {
				return 0, false
			}
		} else if mh&hmask != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	if score > k {
		return 0, false
	}
	return score, true
}

// distanceBlocks runs Hyyrö's block chain for patterns longer than one
// word: per text character the horizontal delta at each 64-row block
// boundary carries into the next block. k >= 0 enables the budget
// cutoff (return -1 when the distance provably exceeds k); k < 0
// computes the exact distance.
func (q *QueryDP) distanceBlocks(text string, k int) int {
	nb := q.nb
	pv, mv := q.pv, q.mv
	for b := 0; b < nb; b++ {
		pv[b] = ^uint64(0)
		mv[b] = 0
	}
	score := q.m
	last := nb - 1
	n := len(text)
	const top = uint64(1) << (wordBits - 1)
	for i := 0; i < n; i++ {
		peq := q.peqB[int(text[i])*nb:]
		hin := 1 // global-alignment boundary: D[0][j] = j
		for b := 0; b < nb; b++ {
			eq := peq[b]
			pvb, mvb := pv[b], mv[b]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			hout := 0
			if b == last {
				// Bits above m-1 are padding; the score row is hmask.
				if ph&q.hmask != 0 {
					hout = 1
				} else if mh&q.hmask != 0 {
					hout = -1
				}
			} else {
				if ph&top != 0 {
					hout = 1
				} else if mh&top != 0 {
					hout = -1
				}
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hin = hout
		}
		score += hin
		if k >= 0 && score-(n-i-1) > k {
			return -1
		}
	}
	return score
}

// ---------------------------------------------------------------------
// Incremental single-word stepping (trie traversal).

// MyersState is one DP column of the single-word kernel: the vertical
// delta vectors and the last-row score. Trie traversals keep one state
// per node frame — 17 bytes instead of an O(|query|) integer row.
type MyersState struct {
	PV, MV uint64
	Score  int
}

// SingleWord reports whether the kernel supports incremental stepping:
// a non-empty pattern of at most 64 bytes.
func (q *QueryDP) SingleWord() bool { return q.m >= 1 && q.nb == 1 }

// Start returns the column for the empty text (D[i][0] = i).
// Valid only when SingleWord().
func (q *QueryDP) Start() MyersState {
	return MyersState{PV: ^uint64(0), MV: 0, Score: q.m}
}

// Step advances the column by one text byte. Valid only when
// SingleWord().
func (q *QueryDP) Step(st MyersState, c byte) MyersState {
	eq := q.peq[c]
	pv, mv := st.PV, st.MV
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	score := st.Score
	if ph&q.hmask != 0 {
		score++
	} else if mh&q.hmask != 0 {
		score--
	}
	ph = ph<<1 | 1
	mh <<= 1
	return MyersState{PV: mh | ^(xv | ph), MV: ph & xv, Score: score}
}

// RowMin returns the minimum cell of the column — the lower bound on
// every distance in the subtree below a trie node, i.e. the pruning
// key. depth is the number of Steps taken (D[0][depth] = depth); the
// cells are recovered as prefix sums of the ±1 delta bits, folded a
// byte at a time through a precomputed min-prefix-sum table.
func (q *QueryDP) RowMin(st MyersState, depth int) int {
	rowMinInit.Do(buildRowMinTables)
	min := 0 // the j = 0 cell contributes prefix sum 0
	run := 0
	pv, mv := st.PV, st.MV
	for i := 0; i < q.m; i += 8 {
		idx := int(pv&0xff)<<8 | int(mv&0xff)
		if v := run + int(rowMinPfx[idx]); v < min {
			min = v
		}
		run += int(rowMinSum[idx])
		pv >>= 8
		mv >>= 8
	}
	// Padding bits above m-1 carry no MV deltas (their PEQ bits are
	// zero), so including them can only append non-negative deltas —
	// the minimum is unaffected.
	return depth + min
}

var (
	rowMinInit sync.Once
	// Indexed by pvByte<<8 | mvByte: the minimum prefix sum of the
	// byte's ±1 deltas (<= 0) and the byte's total delta.
	rowMinPfx [1 << 16]int8
	rowMinSum [1 << 16]int8
)

func buildRowMinTables() {
	for p := 0; p < 256; p++ {
		for m := 0; m < 256; m++ {
			sum, min := 0, 0
			for b := 0; b < 8; b++ {
				sum += (p >> b & 1) - (m >> b & 1)
				if sum < min {
					min = sum
				}
			}
			rowMinPfx[p<<8|m] = int8(min)
			rowMinSum[p<<8|m] = int8(sum)
		}
	}
}
