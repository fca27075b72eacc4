package query

// The vector access-path operators: continuous-metric twins of the
// string access paths in batch_operators.go. VecNearestK and VecRange
// serve NEAREST / SIMILAR TO ... WITHIN over the vec column, backed by
// the relation's VP-tree when the metric satisfies the triangle
// inequality and by a metric scan otherwise (cosine).
//
// Determinism: every path — block scan, VP-tree walk — calls the metric
// with the query vector as the first operand and admits candidates
// through the same (dist, id)-ordered best list, so scan, tree and
// brute-force executions produce byte-identical results at every block
// size (the property the vector parity oracle pins).

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/relation"
)

// --------------------------------------------------------- nearest-k

// batchVecNearestKOp answers "vec NEAREST k TO [..]". The vptree
// variant walks the metric tree depth-first with a shrinking pruning
// radius (buffer-reusing Into form); the scan variant pulls tuple
// blocks and evaluates the metric's block kernel (metric.DistBatch)
// over each vector column before folding the distances into the same
// bounded (dist, id) best list. Rows without a vector never qualify.
type batchVecNearestKOp struct {
	kernelTag
	ctx        *execCtx
	snap       *relation.Snapshot
	alias      string
	via        string // "vptree" or "scan"
	target     metric.Vector
	k          int
	metricName string
	size       int

	matches []index.Match
	pos     int
	blk     relation.Block
	dbuf    []float64
	buf     *Batch
	last    ExecStats // retained across Close for span attribution
}

func (o *batchVecNearestKOp) opStats() ExecStats { return o.last }

func (o *batchVecNearestKOp) OpenBatch() error {
	o.pos = 0
	o.buf = getBatch()
	m, ok := metric.Lookup(o.metricName)
	if !ok {
		return fmt.Errorf("query: unknown metric %q", o.metricName)
	}
	if o.via == "vptree" {
		// The shared tree may hold tombstoned or post-snapshot entries;
		// the visibility filter keeps them out of the best list without
		// losing true answers.
		ms, st := o.snap.VPTree(m).NearestKFilterStatsInto(o.matches[:0], o.target, o.k, o.snap.Visible)
		o.matches = ms
		es := fromIndexStats(st)
		observeVisited(mNearestVisitedVec, es.Verifications, o.snap.Len())
		o.last.add(es)
		o.ctx.addStats(es)
		return nil
	}
	var local ExecStats
	best := o.matches[:0]
	cur := o.snap.Shard(0, 1)
	for {
		n := cur.NextBlock(&o.blk, o.size)
		if n == 0 {
			break
		}
		if cap(o.dbuf) < n {
			o.dbuf = make([]float64, n)
		}
		out := o.dbuf[:n]
		// Full distances always (no early-abandon): the admission test
		// below then sees the exact same float64 the VP-tree walk
		// computes, keeping every path bitwise-aligned.
		metric.DistBatch(m, o.target, o.blk.Vecs[:n], out)
		local.Candidates += n
		for i := 0; i < n; i++ {
			if o.blk.Vecs[i] == nil {
				continue // DistBatch yields +Inf; never admissible
			}
			local.Verifications++
			d := out[i]
			if len(best) < o.k || d <= best[len(best)-1].Dist {
				best = index.PushBestK(best, index.Match{ID: o.blk.IDs[i], Dist: d}, o.k)
			}
		}
	}
	o.matches = best
	observeVisited(mNearestVisitedVec, local.Verifications, o.snap.Len())
	o.last.add(local)
	o.ctx.addStats(local)
	return nil
}

func (o *batchVecNearestKOp) NextBatch() (*Batch, error) {
	if o.pos >= len(o.matches) {
		return nil, nil
	}
	b := o.buf
	b.reset()
	b.alias = o.alias
	for b.Len() < o.size && o.pos < len(o.matches) {
		m := o.matches[o.pos]
		o.pos++
		t, _ := o.snap.Tuple(m.ID)
		b.appendMatch(t, m.Dist, true)
	}
	return b, nil
}

func (o *batchVecNearestKOp) CloseBatch() error {
	o.matches = o.matches[:0]
	putBatch(o.buf)
	o.buf = nil
	return nil
}

func (o *batchVecNearestKOp) Describe() string {
	return fmt.Sprintf("VecNearestK(%s via %s, k=%d, metric=%s)", o.alias, o.via, o.k, o.metricName)
}

func (o *batchVecNearestKOp) childNodes() []BatchOperator { return nil }

// ------------------------------------------------------------- range

// batchVecRangeOp answers "vec SIMILAR TO [..] WITHIN r" with one
// VP-tree range search at open. The shared tree is a superset of the
// snapshot, so invisible rows (tombstoned or inserted later) are
// dropped, and the matches are sorted by id before the first block
// leaves: the reply is in the scan's order, which every shard count's
// id-merging gather — and the LIMIT it pushes into each shard —
// relies on. Like the string band walk, a LIMIT above it does not cut
// the search short.
type batchVecRangeOp struct {
	kernelTag
	matchList
	ctx        *execCtx
	target     metric.Vector
	radius     float64
	metricName string
}

func (o *batchVecRangeOp) OpenBatch() error {
	o.pos = 0
	o.buf = getBatch()
	m, ok := metric.Lookup(o.metricName)
	if !ok {
		return fmt.Errorf("query: unknown metric %q", o.metricName)
	}
	ms, st := o.snap.VPTree(m).RangeStats(o.target, o.radius)
	ms = slices.DeleteFunc(ms, func(m index.Match) bool { return !o.snap.Visible(m.ID) })
	slices.SortFunc(ms, func(a, b index.Match) int { return cmp.Compare(a.ID, b.ID) })
	o.matches = ms
	o.record(o.ctx, fromIndexStats(st))
	return nil
}

func (o *batchVecRangeOp) Describe() string {
	return fmt.Sprintf("VecRange(%s via vptree, radius=%g, metric=%s)", o.alias, o.radius, o.metricName)
}

// ------------------------------------------------------- shard leaf

// batchShardVecNearestKOp is a batchVecNearestKOp over one shard
// snapshot; it exists so EXPLAIN shows which shard each k-best list
// comes from.
type batchShardVecNearestKOp struct {
	batchVecNearestKOp
	idx, of int
}

func (o *batchShardVecNearestKOp) Describe() string {
	return fmt.Sprintf("ShardVecNearestK(%s, shard %d/%d, via %s, k=%d, metric=%s)",
		o.alias, o.idx, o.of, o.via, o.k, o.metricName)
}
