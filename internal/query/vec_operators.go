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
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/relation"
)

// keep appends a VP-tree search's answers to the leaf's match list.
func (l *matchList) keep(ms []index.Match) {
	for _, m := range ms {
		l.found.ms = append(l.found.ms, match{id: m.ID, dist: m.Dist})
	}
}

// --------------------------------------------------------- nearest-k

// batchVecNearestKOp answers "vec NEAREST k TO [..]". The vptree
// variant walks the metric tree depth-first with a shrinking pruning
// radius (buffer-reusing Into form); the scan variant pulls tuple
// blocks and evaluates the metric's block kernel (metric.DistBatch)
// over each vector column before folding the distances into the same
// bounded (dist, id) best list. Rows without a vector never qualify.
type batchVecNearestKOp struct {
	kernelTag
	matchList
	ctx        *execCtx
	via        string // "vptree" or "scan"
	target     metric.Vector
	k          int
	metricName string

	blk  relation.Block
	dbuf []float64
}

func (o *batchVecNearestKOp) OpenBatch() error {
	o.open()
	m, ok := metric.Lookup(o.metricName)
	if !ok {
		return fmt.Errorf("query: unknown metric %q", o.metricName)
	}
	var st ExecStats
	if o.via == "vptree" {
		// The shared tree may hold tombstoned or post-snapshot entries;
		// the visibility filter keeps them out of the best list without
		// losing true answers.
		best, ist := o.snap.VPTree(m).NearestKFilterStats(o.target, o.k, o.snap.Visible)
		o.keep(best)
		st = fromIndexStats(ist)
	} else {
		st = o.scan(m)
	}
	if o.order == OrderDesc { // the best list is already (dist, id)
		o.sortMatches()
	}
	observeVisited(mNearestVisitedVec, st.Verifications, o.snap.Len())
	o.record(o.ctx, st)
	return nil
}

// scan folds every visible vector of the snapshot into the best list.
func (o *batchVecNearestKOp) scan(m metric.Distance) ExecStats {
	var st ExecStats
	best := o.found.ms
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
		st.Candidates += n
		for i := 0; i < n; i++ {
			if o.blk.Vecs[i] == nil {
				continue // DistBatch yields +Inf; never admissible
			}
			st.Verifications++
			d := out[i]
			if len(best) < o.k || d <= best[len(best)-1].dist {
				best = pushBest(best, match{id: o.blk.IDs[i], dist: d}, o.k)
			}
		}
	}
	o.found.ms = best
	return st
}

func (o *batchVecNearestKOp) Describe() string {
	return fmt.Sprintf("VecNearestK(%s via %s%s, k=%d, metric=%s%s)",
		o.alias, o.via, o.shardNote(), o.k, o.metricName, o.orderNote())
}

// ------------------------------------------------------------- range

// batchVecRangeOp answers "vec SIMILAR TO [..] WITHIN r" with one
// VP-tree range search at open. The shared tree is a superset of the
// snapshot, so invisible rows (tombstoned or inserted later) are
// dropped, and the matches are sorted into the leaf's order (see
// matchList) before the first block leaves. Like the string band walk,
// a LIMIT above it does not cut the search short.
type batchVecRangeOp struct {
	kernelTag
	matchList
	ctx        *execCtx
	target     metric.Vector
	radius     float64
	metricName string
}

func (o *batchVecRangeOp) OpenBatch() error {
	o.open()
	m, ok := metric.Lookup(o.metricName)
	if !ok {
		return fmt.Errorf("query: unknown metric %q", o.metricName)
	}
	ms, st := o.snap.VPTree(m).RangeStats(o.target, o.radius)
	o.keep(slices.DeleteFunc(ms, func(m index.Match) bool { return !o.snap.Visible(m.ID) }))
	o.sortMatches()
	o.record(o.ctx, fromIndexStats(st))
	return nil
}

func (o *batchVecRangeOp) Describe() string {
	return fmt.Sprintf("VecRange(%s via vptree%s, radius=%g, metric=%s%s)",
		o.alias, o.shardNote(), o.radius, o.metricName, o.orderNote())
}
