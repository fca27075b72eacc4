package query

// The vector access-path operators: continuous-metric twins of the
// string access paths in batch_operators.go. VecNearestK and VecRange
// serve NEAREST / SIMILAR TO ... WITHIN over the vec column, backed by
// the relation's vector view (relation.VecView) when the metric
// satisfies the triangle inequality and by a metric scan otherwise
// (cosine).
//
// Determinism: every path — block scan, view walk — calls the metric
// with the query vector as the first operand and admits candidates
// through the same (dist, id)-ordered best list, so scan, view and
// brute-force executions produce byte-identical results at every block
// size (the property the vector parity oracle pins).

import (
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/relation"
)

// --------------------------------------------------------- nearest-k

// batchVecNearestKOp answers "vec NEAREST k TO [..]". The vecview
// variant walks the vector view near side first with a bound that
// shrinks to the current k-th best distance; the scan variant pulls
// tuple blocks. Both evaluate the metric's block kernel
// (metric.DistBatch) and fold the distances into the same bounded
// (dist, id) best list. Rows without a vector never qualify.
type batchVecNearestKOp struct {
	kernelTag
	matchList
	ctx        *execCtx
	via        string // "vecview" or "scan"
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
	if o.via == "vecview" {
		best, bound := o.found.ms, math.Inf(1)
		st = fromIndexStats(o.snap.VecWalk(m, o.target, &bound, func(rows []*relation.Row, ds []float64) {
			for i, row := range rows {
				if len(best) < o.k || ds[i] <= best[len(best)-1].dist {
					best = pushBest(best, match{id: row.ID, dist: ds[i]}, o.k)
				}
			}
			if len(best) == o.k {
				bound = best[o.k-1].dist
			}
		}))
		o.found.ms = best
	} else {
		st = o.scan(m)
	}
	if o.order == OrderDesc { // the best list is already (dist, id)
		o.sortMatches()
	}
	// Only vector-bearing rows are ever verified.
	observeVisited(mNearestVisitedVec, st.Verifications, o.snap.Stats().VecCount)
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
		// Full distances, the kernel the view's NEAREST walk runs too.
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

// batchVecRangeOp answers "vec SIMILAR TO [..] WITHIN r" with one walk
// of the vector view at open. The view is a superset of the snapshot;
// its walk keeps the visible rows, and the matches are sorted into the
// leaf's order (see matchList) before the first block leaves. Like the
// string band walk, a LIMIT above it does not cut the walk short.
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
	ms, r := o.found.ms, o.radius
	st := o.snap.VecWalk(m, o.target, &r, func(rows []*relation.Row, ds []float64) {
		for i, row := range rows {
			ms = append(ms, match{id: row.ID, dist: ds[i]})
		}
	})
	o.found.ms = ms
	o.sortMatches()
	o.record(o.ctx, fromIndexStats(st))
	return nil
}

func (o *batchVecRangeOp) Describe() string {
	return fmt.Sprintf("VecRange(%s via vecview%s, radius=%g, metric=%s%s)",
		o.alias, o.shardNote(), o.radius, o.metricName, o.orderNote())
}
