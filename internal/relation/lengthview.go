package relation

import (
	"sort"
	"sync/atomic"

	"repro/internal/index"
)

// LengthView is the arena regrouped by sequence length: the access
// structure of every unit-cost string query (WITHIN, NEAREST and the seq
// join probe). Under a unit-cost rule set the length difference bounds
// the edit distance from below, so a walk that visits the buckets in
// order of |len(s) - len(q)| can stop at the first bucket farther away
// than its bound — the radius, or the current k-th best answer; inside
// a bucket each entry's byte-frequency signature gives a second lower
// bound that spares most of the remaining verifications.
//
// It follows the BK-tree's contract: built lazily, extended online by
// the insert paths under the relation's commit lock (single writer),
// read lock-free, rebuilt by compaction. The bucket list and each
// bucket's Band are immutable behind atomic pointers, a band's entries
// and signatures together behind one; an append writes the spare
// capacity beyond every published length and then publishes longer
// headers, so a reader sees the old band or the new one. The view
// therefore holds a superset of any snapshot taken while it is
// installed, and readers filter the entries they keep through
// Snapshot.VisibleRow.
type LengthView struct {
	buckets atomic.Pointer[[]*lenBucket] // ascending n; copy-on-write
}

type lenBucket struct {
	n    int // sequence length of every entry
	band atomic.Pointer[Band]
}

// LenEntry is one arena row in a LengthView bucket. Seq repeats Row.Seq
// so a verification reads the string without touching the row.
type LenEntry struct {
	Seq string
	Row *Row
}

// Band is one bucket of a LengthView as a reader sees it: the entries of
// one sequence length and, in a dense column beside them, their
// byte-frequency signatures, the filter a walk applies before verifying.
type Band struct {
	Len  int
	Ents []LenEntry
	Sigs []index.ByteSig // Sigs[i] is the signature of Ents[i].Seq
}

func buildLengthView(rows []*Row) *LengthView {
	v := &LengthView{}
	for _, row := range rows {
		v.insert(row)
	}
	return v
}

func (v *LengthView) load() []*lenBucket {
	if p := v.buckets.Load(); p != nil {
		return *p
	}
	return nil
}

// insert appends the row to the bucket of its length. Single-writer
// only; see the type comment.
func (v *LengthView) insert(row *Row) {
	n := len(row.Seq)
	bs := v.load()
	i := sort.Search(len(bs), func(i int) bool { return bs[i].n >= n })
	if i == len(bs) || bs[i].n != n {
		grown := make([]*lenBucket, 0, len(bs)+1)
		grown = append(grown, bs[:i]...)
		grown = append(grown, &lenBucket{n: n})
		grown = append(grown, bs[i:]...)
		bs = grown
		v.buckets.Store(&bs)
	}
	b := bs[i]
	band := Band{Len: n}
	if p := b.band.Load(); p != nil {
		band = *p
	}
	band.Ents = append(band.Ents, LenEntry{Seq: row.Seq, Row: row})
	band.Sigs = append(band.Sigs, index.NewByteSig(row.Seq))
	b.band.Store(&band)
}

// Bands returns the buckets in ascending order of |n - qlen|, the
// shorter one first where two are equally far.
func (v *LengthView) Bands(qlen int) BandIter {
	bs := v.load()
	hi := sort.Search(len(bs), func(i int) bool { return bs[i].n >= qlen })
	return BandIter{bs: bs, lo: hi - 1, hi: hi, qlen: qlen}
}

// AllBands returns every bucket as published now, in ascending length.
// A band's entries ascend in row id: the arena is id-ordered and the
// insert paths append. Later inserts may grow the bands behind the
// returned headers and add buckets the list lacks; their rows are all
// born after the call, so a reader of an earlier snapshot misses none
// of its rows by keeping the list.
func (v *LengthView) AllBands() []Band {
	bs := v.load()
	out := make([]Band, len(bs))
	for i, bk := range bs {
		out[i] = Band{Len: bk.n}
		if p := bk.band.Load(); p != nil {
			out[i] = *p
		}
	}
	return out
}

// BandIter walks a LengthView outward from one sequence length.
type BandIter struct {
	bs     []*lenBucket
	lo, hi int // next bucket below / at-or-above qlen
	qlen   int
}

// Next returns the next bucket; ok is false once every bucket was
// returned. The band's Len less the iterator's origin is its signed
// distance in length, which a walk needs both ways: its magnitude
// bounds the distance, and a longer band tightens the signature test.
func (it *BandIter) Next() (b Band, ok bool) {
	var bk *lenBucket
	switch {
	case it.lo < 0 && it.hi >= len(it.bs):
		return Band{}, false
	case it.hi >= len(it.bs) || it.lo >= 0 && it.qlen-it.bs[it.lo].n <= it.bs[it.hi].n-it.qlen:
		bk = it.bs[it.lo]
		it.lo--
	default:
		bk = it.bs[it.hi]
		it.hi++
	}
	if p := bk.band.Load(); p != nil {
		return *p, true
	}
	return Band{Len: bk.n}, true
}
