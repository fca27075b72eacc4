package repro

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/relation"
)

// kernelWords is the shared workload for the kernel gate: one fixed
// 32-byte query verified against 512 random words of 8..64 bytes — the
// single-word regime every BK-tree/trie traversal and compiled filter
// lives in. Random words share almost no affixes, so the scalar DP
// cannot hide behind its prefix/suffix stripping.
func kernelWords() (string, []string) {
	rng := rand.New(rand.NewSource(99))
	const alpha = "abcdefgh"
	gen := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	query := gen(32)
	words := make([]string, 512)
	for i := range words {
		words[i] = gen(8 + rng.Intn(57))
	}
	return query, words
}

// BenchmarkKernelScalarLevenshtein — the scalar two-row DP over the
// kernel workload; the denominator of the KernelMyersVsScalar gate.
func BenchmarkKernelScalarLevenshtein(b *testing.B) {
	query, words := kernelWords()
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			sink += editdp.Levenshtein(query, w)
		}
	}
	benchSink = sink
}

// BenchmarkKernelMyersVsScalar — the query-scoped bit-parallel kernel
// on the identical workload (PEQ built once per query, as the indexes
// and compiled filters use it). BENCH_baseline.json gates this at
// max_ratio 0.5 of KernelScalarLevenshtein: at least 2x faster on
// <=64-byte words, with zero tolerance — the ceiling is policy.
func BenchmarkKernelMyersVsScalar(b *testing.B) {
	query, words := kernelWords()
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp := editdp.NewQueryDP(query)
		for _, w := range words {
			sink += dp.Distance(w)
		}
	}
	benchSink = sink
}

var benchSink int

// sigScanBands is the signature-filter shape of the words_adhoc
// workload: for each of the 256 NEAREST targets over the 20 000 words
// of nearestWordsBench, the length bands a WITHIN 1 walk visits. It
// returns the snapshot's bands and their candidate total per pass.
func sigScanBands(b *testing.B) ([]string, [][]relation.Band, int) {
	b.Helper()
	rel, targets := nearestWordsBench(b)
	view := rel.Snapshot().LengthView()
	bands := make([][]relation.Band, len(targets))
	cands := 0
	for i, t := range targets {
		it := view.Bands(len(t))
		for band, ok := it.Next(); ok && max(band.Len-len(t), len(t)-band.Len) <= 1; band, ok = it.Next() {
			bands[i] = append(bands[i], band)
			cands += len(band.Ents)
		}
	}
	return targets, bands, cands
}

// BenchmarkKernelSigScan — the band walk's signature filter at radius 1
// over sigScanBands: index.NextWithin over each band's dense signature
// column, one popcount per word and candidate. One op is one pass over
// all targets, ~4 900 candidates each; ns/cand is the time per
// candidate. Informational in BENCH_baseline.json; the nibble loop it
// replaced is BenchmarkKernelSigScanNibble.
func BenchmarkKernelSigScan(b *testing.B) {
	targets, bands, cands := sigScanBands(b)
	qsigs := make([]index.ByteSig, len(targets))
	for i, t := range targets {
		qsigs[i] = index.NewByteSig(t)
	}
	sink := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, q := range qsigs {
			for _, band := range bands[i] {
				thr := 1 - max(band.Len-len(targets[i]), 0)
				for j := index.NextWithin(band.Sigs, q, thr, 0); j < len(band.Sigs); j = index.NextWithin(band.Sigs, q, thr, j+1) {
					sink++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cands), "ns/cand")
	benchSink = sink
}

// packedBandRows is the verification shape of the words_nearest
// workload: for each target of nearestWordsBench that the packed kernel
// serves (1–15 bytes; 255 of the 256), the rows a NEAREST 10
// band walk verifies once its bound has settled at the target's 10th
// smallest distance — the rows of the bands within that bound whose
// signatures pass it, grouped by band. It returns the targets, their
// bounds, the surviving rows per band and the row total per pass.
func packedBandRows(b *testing.B) ([]string, []int, [][][]string, int) {
	b.Helper()
	rel, targets := nearestWordsBench(b)
	targets = slices.DeleteFunc(targets, func(t string) bool { return !editdp.NewQueryDP(t).PacksRows(0) })
	snap := rel.Snapshot()
	view := snap.LengthView()
	var all []string
	var blk relation.Block
	cur := snap.Shard(0, 1)
	for n := cur.NextBlock(&blk, 256); n > 0; n = cur.NextBlock(&blk, 256) {
		all = append(all, blk.Seqs[:n]...)
	}
	bounds := make([]int, len(targets))
	rows := make([][][]string, len(targets))
	cands := 0
	dists := make([]int, len(all))
	for i, t := range targets {
		dp := editdp.NewQueryDP(t)
		for j, s := range all {
			dists[j] = dp.Distance(s)
		}
		slices.Sort(dists)
		r := dists[9]
		bounds[i] = r
		q := index.NewByteSig(t)
		it := view.Bands(len(t))
		for band, ok := it.Next(); ok && max(band.Len-len(t), len(t)-band.Len) <= r; band, ok = it.Next() {
			var got []string
			thr := r - max(band.Len-len(t), 0)
			for j := index.NextWithin(band.Sigs, q, thr, 0); j < len(band.Sigs); j = index.NextWithin(band.Sigs, q, thr, j+1) {
				got = append(got, band.Ents[j].Seq)
			}
			rows[i] = append(rows[i], got)
			cands += len(got)
		}
	}
	return targets, bounds, rows, cands
}

// BenchmarkKernelMyersPacked — the band walk's verifier over
// packedBandRows: each band's surviving rows, editdp.RowLanes at a time,
// through one lane-packed QueryDP.DistanceRows call, exact distances
// with no early abandon. One op is one pass over all targets; ns/cand is
// the time per verified row. Informational in BENCH_baseline.json; the
// per-row kernel it replaced is BenchmarkKernelMyersPerRow.
func BenchmarkKernelMyersPacked(b *testing.B) {
	targets, _, rows, cands := packedBandRows(b)
	dps := make([]*editdp.QueryDP, len(targets))
	for i, t := range targets {
		dps[i] = editdp.NewQueryDP(t)
	}
	var out [editdp.RowLanes]int
	sink := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, dp := range dps {
			for _, band := range rows[i] {
				for j := 0; j < len(band); j += editdp.RowLanes {
					g := band[j:min(j+editdp.RowLanes, len(band))]
					dp.DistanceRows(g, out[:len(g)])
					sink += out[0]
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cands), "ns/cand")
	benchSink = sink
}

// BenchmarkKernelMyersPerRow is the reference side of
// BenchmarkKernelMyersPacked: the same rows, one QueryDP.Within call
// each at the target's settled bound, with early abandon.
func BenchmarkKernelMyersPerRow(b *testing.B) {
	targets, bounds, rows, cands := packedBandRows(b)
	dps := make([]*editdp.QueryDP, len(targets))
	for i, t := range targets {
		dps[i] = editdp.NewQueryDP(t)
	}
	sink := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, dp := range dps {
			for _, band := range rows[i] {
				for _, s := range band {
					d, _ := dp.Within(s, bounds[i])
					sink += d
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cands), "ns/cand")
	benchSink = sink
}

// nibbleEntry is a length-band entry as the walk read it before the
// signature became a dense column: the string, the row and a sixteen
// 4-bit counter signature side by side.
type nibbleEntry struct {
	seq string
	row *relation.Row
	sig uint64
}

// nibbleSig is that signature: counter c&15 counts byte c, saturating
// at 15.
func nibbleSig(s string) uint64 {
	var sig uint64
	for i := 0; i < len(s); i++ {
		sh := uint(s[i]&15) * 4
		if sig>>sh&15 != 15 {
			sig += 1 << sh
		}
	}
	return sig
}

// nibbleBound is its bound: the larger of the summed counter surplus
// and deficit, eight lanes of a word at a time.
func nibbleBound(a, b uint64) int {
	const lo4 = 0x0F0F0F0F0F0F0F0F
	p0, n0 := nibbleLaneDiffs(a&lo4, b&lo4)
	p1, n1 := nibbleLaneDiffs(a>>4&lo4, b>>4&lo4)
	return int(max(p0+p1, n0+n1))
}

// nibbleLaneDiffs treats x and y as eight byte lanes holding 0..15 and
// returns the sums of the positive and of the negative lane differences
// x-y.
func nibbleLaneDiffs(x, y uint64) (pos, neg uint64) {
	const (
		lo4  = 0x0F0F0F0F0F0F0F0F
		b16  = 0x1010101010101010
		ones = 0x0101010101010101
	)
	t := (x | b16) - y
	ge := (t >> 4 & ones) * 0x0F
	d := t & lo4
	pos = (d & ge) * ones >> 56
	neg = ((b16 - d) & lo4 &^ ge) * ones >> 56
	return pos, neg
}

// BenchmarkKernelSigScanNibble is the reference side of
// BenchmarkKernelSigScan: the same bands and targets through the
// per-entry nibble loop the popcount kernel replaced.
func BenchmarkKernelSigScanNibble(b *testing.B) {
	targets, bands, cands := sigScanBands(b)
	qsigs := make([]uint64, len(targets))
	ents := make([][][]nibbleEntry, len(targets))
	for i, t := range targets {
		qsigs[i] = nibbleSig(t)
		for _, band := range bands[i] {
			col := make([]nibbleEntry, len(band.Ents))
			for j, e := range band.Ents {
				col[j] = nibbleEntry{seq: e.Seq, row: e.Row, sig: nibbleSig(e.Seq)}
			}
			ents[i] = append(ents[i], col)
		}
	}
	sink := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, q := range qsigs {
			for _, col := range ents[i] {
				for j := range col {
					if nibbleBound(q, col[j].sig) > 1 {
						continue
					}
					sink++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cands), "ns/cand")
	benchSink = sink
}

// kernelVecs is the shared workload for the vector kernel gates: one
// fixed query against 512 random candidates, all of the given
// dimension. Components are uniform in [-1,1), so distances
// concentrate around sqrt(2d/3) — far above the tight radius the
// early-abandon benchmark probes with.
func kernelVecs(dim int) (metric.Vector, []metric.Vector) {
	rng := rand.New(rand.NewSource(7))
	gen := func() metric.Vector {
		v := make(metric.Vector, dim)
		for i := range v {
			v[i] = float32(rng.Float64()*2 - 1)
		}
		return v
	}
	q := gen()
	cands := make([]metric.Vector, 512)
	for i := range cands {
		cands[i] = gen()
	}
	return q, cands
}

// BenchmarkKernelVecL2 — the batch L2 kernel over 512 64-dimensional
// candidates, the column shape the vectorized filter and nearest-k
// operators feed it. Informational ns_per_op plus the denominator of
// the KernelVecL2Abandon gate's sibling workload.
func BenchmarkKernelVecL2(b *testing.B) {
	m, _ := metric.Lookup("l2")
	q, cands := kernelVecs(64)
	out := make([]float64, len(cands))
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.DistBatch(m, q, cands, out)
		sink += out[0]
	}
	benchSinkF = sink
}

// BenchmarkKernelVecCosine — the batch cosine kernel on the identical
// workload. Cosine has no early-abandon form, so the batch kernel is
// its entire fast path; the entry is informational (warn-only).
func BenchmarkKernelVecCosine(b *testing.B) {
	m, _ := metric.Lookup("cosine")
	q, cands := kernelVecs(64)
	out := make([]float64, len(cands))
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.DistBatch(m, q, cands, out)
		sink += out[0]
	}
	benchSinkF = sink
}

// BenchmarkKernelVecL2Full — full 384-dimensional L2 distances, the
// denominator of the early-abandon gate.
func BenchmarkKernelVecL2Full(b *testing.B) {
	m, _ := metric.Lookup("l2")
	q, cands := kernelVecs(384)
	out := make([]float64, len(cands))
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.DistBatch(m, q, cands, out)
		sink += out[0]
	}
	benchSinkF = sink
}

// BenchmarkKernelVecL2Abandon — the early-abandoning Within test on
// the identical 384-dimensional workload with a radius nothing
// matches: partial sums cross the squared budget at the first 64-lane
// block check, so each candidate does ~1/6 of the full work.
// BENCH_baseline.json gates this as a ratio of KernelVecL2Full — the
// abandon path must stay meaningfully cheaper than computing full
// distances, else the WITHIN scan path has silently lost its pruning.
func BenchmarkKernelVecL2Abandon(b *testing.B) {
	m, _ := metric.Lookup("l2")
	q, cands := kernelVecs(384)
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			d, _ := metric.Within(m, q, c, 0.5)
			sink += d
		}
	}
	benchSinkF = sink
}

var benchSinkF float64
