package query

// The single-relation physical operators: access paths (Scan and the
// band-walk leaves IndexRange and NearestK, see bandwalk.go), Filter,
// Project, Limit and OrderByDist. Each pulls blocks from its children,
// does one job, and counts its own work; the planner in plan.go
// composes them into trees.
// (The vector access paths live in vec_operators.go, the join in
// join_batch.go, the fan-out in batch_shard.go.)

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/relation"
)

// infCut bounds finite distances: +Inf means unreachable.
const infCut = 1e300

// ---------------------------------------------------------------- scan

// batchScanOp streams the visible tuples of its stream a block at a
// time through relation.Cursor.NextBlock, which amortizes the
// visibility filtering across whole arena runs. Slice (i, n) of a
// snapshot covers a contiguous arena range, so concatenating slices
// 0..n-1 reproduces the serial scan order — the invariant the id merge
// of a parallel plan relies on. Reading through the snapshot gives every
// query a consistent view while concurrent commits land.
type batchScanOp struct {
	stream
	ctx   *execCtx
	alias string
	size  int

	cur   *relation.Cursor
	buf   *Batch
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func (o *batchScanOp) OpenBatch() error {
	o.cur = o.snap.Shard(o.slice, o.slices)
	o.buf = getBatch()
	return nil
}

func (o *batchScanOp) NextBatch() (*Batch, error) {
	b := o.buf
	b.rows = b.rows[:0]
	n := o.cur.NextBlock(&b.Block, o.size)
	if n == 0 {
		return nil, nil
	}
	b.syncCols()
	o.local.Candidates += n
	return b, nil
}

func (o *batchScanOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	putBatch(o.buf)
	o.buf = nil
	return nil
}

func (o *batchScanOp) opStats() ExecStats { return o.last }

func (o *batchScanOp) Describe() string { return fmt.Sprintf("Scan(%s%s)", o.alias, o.shardNote()) }

func (o *batchScanOp) childNodes() []BatchOperator { return nil }

// ------------------------------------------------------ band-walk leaves

// matchList holds the matches an access path materialised at open from
// its stream's snapshot and streams them out in blocks; the WITHIN and
// NEAREST leaves share it.
//
// The leaf emits the order the query asks for (order, set by the
// planner): without ORDER BY, WITHIN sorts by id — the scan's order,
// which every shard count's id-merging gather reproduces — and NEAREST
// keeps its (dist, id) best list; ORDER BY dist sorts by (dist, id) and
// DESC by (dist desc, id). Those are exactly the orders a stable
// OrderByDist makes of the unordered stream, so the planner builds none
// above such a leaf.
type matchList struct {
	stream
	alias  string
	size   int
	order  OrderDir
	noDist bool      // the row's distance is not the leaf's: emit none (see rangeConjunct)
	found  *matchBuf // the matches, pooled from OpenBatch to CloseBatch
	pos    int
	buf    *Batch
	last   ExecStats // retained across Close for span attribution
}

// match is one row a leaf admitted: all it keeps of the row until the
// row is emitted, when the tuple is read from the snapshot.
type match struct {
	id   int
	dist float64
}

// matchBuf is a leaf's match list. matchPool recycles it across
// executions, as batchPool does blocks: a wide WITHIN collects
// thousands of matches per execution.
type matchBuf struct{ ms []match }

var matchPool = sync.Pool{New: func() any { return new(matchBuf) }}

// open takes the leaf's output block and an empty match list from the
// pools.
func (l *matchList) open() {
	l.pos = 0
	l.buf = getBatch()
	l.found = matchPool.Get().(*matchBuf)
	l.found.ms = l.found.ms[:0]
}

// record folds the walk's counters into the operator and the query.
func (l *matchList) record(ctx *execCtx, st ExecStats) {
	l.last.add(st)
	ctx.addStats(st)
}

// sortMatches puts the matches in the leaf's emission order.
func (l *matchList) sortMatches() {
	switch l.order {
	case OrderAsc:
		slices.SortFunc(l.found.ms, func(a, b match) int {
			if a.dist != b.dist {
				if a.dist < b.dist {
					return -1
				}
				return 1
			}
			return a.id - b.id
		})
	case OrderDesc:
		slices.SortFunc(l.found.ms, func(a, b match) int {
			if a.dist != b.dist {
				if a.dist > b.dist {
					return -1
				}
				return 1
			}
			return a.id - b.id
		})
	default:
		slices.SortFunc(l.found.ms, func(a, b match) int { return a.id - b.id })
	}
}

// pushBest inserts m into best — kept ascending by (dist, id), the
// order index.PushBestK keeps — and truncates it to at most k entries.
func pushBest(best []match, m match, k int) []match {
	i := len(best)
	for i > 0 && (best[i-1].dist > m.dist || best[i-1].dist == m.dist && best[i-1].id > m.id) {
		i--
	}
	best = append(best, match{})
	copy(best[i+1:], best[i:])
	best[i] = m
	if len(best) > k {
		best = best[:k]
	}
	return best
}

// orderNote is the leaf's EXPLAIN suffix when it sorts for an ORDER BY.
func (l *matchList) orderNote() string {
	switch l.order {
	case OrderAsc:
		return ", order=dist"
	case OrderDesc:
		return ", order=dist desc"
	}
	return ""
}

func (l *matchList) NextBatch() (*Batch, error) {
	ms := l.found.ms
	if l.pos >= len(ms) {
		return nil, nil
	}
	b := l.buf
	b.reset(1)
	for b.Len() < l.size && l.pos < len(ms) {
		m := ms[l.pos]
		l.pos++
		t, _ := l.snap.Tuple(m.id)
		if l.noDist {
			b.appendMatch(t, 0, false)
		} else {
			b.appendMatch(t, m.dist, true)
		}
	}
	return b, nil
}

func (l *matchList) CloseBatch() error {
	if l.found != nil {
		matchPool.Put(l.found)
		l.found = nil
	}
	putBatch(l.buf)
	l.buf = nil
	return nil
}

func (l *matchList) opStats() ExecStats { return l.last }

func (l *matchList) childNodes() []BatchOperator { return nil }

// batchIndexRangeOp answers "seq SIMILAR TO lit WITHIN r" under a
// unit-cost rule set with one band walk at the fixed bound r. The
// matches are sorted into the leaf's order (see matchList) before the
// first block leaves. A LIMIT above it does not cut the walk short: the
// first rows in either order are known only once every band within r
// was read.
type batchIndexRangeOp struct {
	kernelTag
	matchList
	ctx     *execCtx
	target  string
	radius  float64
	ruleSet string
}

func (o *batchIndexRangeOp) OpenBatch() error {
	o.open()
	w, err := o.ctx.eng.bandWalk(o.ruleSet, o.target)
	if err != nil {
		return err
	}
	w.setBound(o.radius)
	ms := o.found.ms
	st := w.walk(o.snap, covers(w.calc, o.snap), func(row *relation.Row, d float64) {
		ms = append(ms, match{id: row.ID, dist: d})
	})
	o.found.ms = ms
	o.sortMatches()
	o.record(o.ctx, st)
	return nil
}

func (o *batchIndexRangeOp) Describe() string {
	return fmt.Sprintf("IndexRange(%s via lengthview%s, target=%s, radius=%g, ruleset=%s%s)",
		o.alias, o.shardNote(), o.target, o.radius, o.ruleSet, o.orderNote())
}

// batchNearestKOp answers "seq NEAREST k TO lit" with one band walk
// whose bound is the current kth-best distance: the walk starts
// unbounded, admitted rows fold into a (dist, id) best list, and once
// the list is full its kth distance becomes the bound — so most rows
// abandon early and the walk stops at the first band strictly farther
// than the kth best. Weighted rule sets have no lower bound and verify
// every row.
type batchNearestKOp struct {
	kernelTag
	matchList
	ctx     *execCtx
	target  string
	k       int
	ruleSet string
}

func (o *batchNearestKOp) OpenBatch() error {
	o.open()
	w, err := o.ctx.eng.bandWalk(o.ruleSet, o.target)
	if err != nil {
		return err
	}
	best := o.found.ms
	st := w.walk(o.snap, covers(w.calc, o.snap), func(row *relation.Row, d float64) {
		best = pushBest(best, match{id: row.ID, dist: d}, o.k)
		if len(best) == o.k {
			w.setBound(best[o.k-1].dist)
		}
	})
	o.found.ms = best
	if o.order == OrderDesc { // the best list is already (dist, id)
		o.sortMatches()
	}
	observeVisited(mNearestVisitedSeq, st.Verifications, o.snap.Len())
	o.record(o.ctx, st)
	return nil
}

func (o *batchNearestKOp) Describe() string {
	return fmt.Sprintf("NearestK(%s%s, k=%d, ruleset=%s%s)", o.alias, o.shardNote(), o.k, o.ruleSet, o.orderNote())
}

// -------------------------------------------------------------- filter

// batchFilterOp keeps the rows satisfying a residual predicate,
// compacting each block in place. The predicate is compiled once per
// execution over the plan's slots (batch_pred.go).
type batchFilterOp struct {
	kernelTag
	ctx   *execCtx
	child BatchOperator
	pred  Expr
	slots slotMap

	fn    predFn
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func (o *batchFilterOp) OpenBatch() error {
	o.fn = o.ctx.eng.compilePred(o.pred, o.slots)
	return o.child.OpenBatch()
}

func (o *batchFilterOp) NextBatch() (*Batch, error) {
	for {
		b, err := o.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		w := 0
		for i := 0; i < n; i++ {
			o.local.Verifications++
			ok, err := o.fn(b, i)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if w != i {
				b.moveRow(w, i)
			}
			w++
		}
		b.truncate(w)
		if w > 0 {
			return b, nil
		}
	}
}

func (o *batchFilterOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	return o.child.CloseBatch()
}

func (o *batchFilterOp) opStats() ExecStats { return o.last }

func (o *batchFilterOp) Describe() string            { return fmt.Sprintf("Filter(%s)", o.pred) }
func (o *batchFilterOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// ------------------------------------------------------------- project

// batchProjectOp materialises the output rows of each block with one
// allocation per block, not one per cell: every row is a slice of one
// array of cells, which the operator reuses for its next block (a
// RowSink copies the slices it keeps), and every number (ids,
// distances) is appended to one byte buffer that becomes a single
// string the cells slice. Strings the tuples already hold (seq,
// attributes) are shared as is.
type batchProjectOp struct {
	q     *Query
	child BatchOperator
	slots slotMap

	cells []string  // the block's cells, row after row
	num   []byte    // the block's formatted numbers, back to back
	ends  []numCell // which cell each number of num fills
}

// numCell records that cells[cell] is num up to end, from where the
// previous number ended.
type numCell struct{ cell, end int }

func (o *batchProjectOp) OpenBatch() error { return o.child.OpenBatch() }

func (o *batchProjectOp) NextBatch() (*Batch, error) {
	b, err := o.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	w := len(o.q.Select)
	if w == 0 {
		w = 2*len(o.q.From) + 1
	}
	n := b.Len()
	if cap(o.cells) < n*w {
		o.cells = make([]string, n*w)
	}
	cells := o.cells[:n*w]
	if cap(o.ends) < n*w {
		// Room for a number in every cell, most of them short: the
		// buffers are sized once per operator instead of grown by
		// doubling in every execution.
		o.ends, o.num = make([]numCell, 0, n*w), make([]byte, 0, 8*n*w)
	}
	o.num, o.ends = o.num[:0], o.ends[:0]
	rows := b.rows[:0]
	for i := 0; i < n; i++ {
		if err := o.project(cells, i*w, b, i); err != nil {
			return nil, err
		}
		rows = append(rows, cells[i*w:(i+1)*w:(i+1)*w])
	}
	if len(o.ends) > 0 {
		s, start := string(o.num), 0
		for _, c := range o.ends {
			cells[c.cell] = s[start:c.end]
			start = c.end
		}
	}
	b.rows = rows
	return b, nil
}

// project fills the row of cells starting at at from row i of b: the
// selected columns, or for '*' id and seq per alias, then dist ("" when
// the row has none).
func (o *batchProjectOp) project(cells []string, at int, b *Batch, i int) error {
	if len(o.q.Select) == 0 {
		for j, ref := range o.q.From {
			s, _ := o.slots.resolve(FieldRef{Table: ref.Alias})
			c := b.slot(s)
			o.number(at+2*j, strconv.AppendInt(o.num, int64(c.IDs[i]), 10))
			cells[at+2*j+1] = c.Seqs[i]
		}
		if b.has[i] {
			o.number(at+2*len(o.q.From), appendDist(o.num, b.dist[i]))
		} else {
			cells[at+2*len(o.q.From)] = ""
		}
		return nil
	}
	for j, col := range o.q.Select {
		if col.Name == "dist" {
			if !b.has[i] {
				return errNoDist
			}
			o.number(at+j, appendDist(o.num, b.dist[i]))
			continue
		}
		s, err := o.slots.resolve(FieldRef{Table: col.Table, Name: col.Name})
		if err != nil {
			return err
		}
		if c := b.slot(s); col.Name == "id" {
			o.number(at+j, strconv.AppendInt(o.num, int64(c.IDs[i]), 10))
		} else {
			cells[at+j] = c.Tuple(i).Attr(col.Name)
		}
	}
	return nil
}

// number records num, just extended by one formatted number, as the
// value of cell.
func (o *batchProjectOp) number(cell int, num []byte) {
	o.num = num
	o.ends = append(o.ends, numCell{cell: cell, end: len(num)})
}

func (o *batchProjectOp) CloseBatch() error { return o.child.CloseBatch() }

func (o *batchProjectOp) Describe() string {
	if len(o.q.Select) == 0 {
		return "Project(*)"
	}
	parts := make([]string, len(o.q.Select))
	for i, c := range o.q.Select {
		parts[i] = c.String()
	}
	return fmt.Sprintf("Project(%s)", strings.Join(parts, ", "))
}

func (o *batchProjectOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// --------------------------------------------------------------- limit

// batchLimitOp truncates the stream after n rows. Because the pipeline
// is pull-based, everything below it that streams — scans, filters, the
// VP-tree iterator — stops working the moment the limit is reached.
type batchLimitOp struct {
	child BatchOperator
	n     int
	seen  int
}

func (o *batchLimitOp) OpenBatch() error { o.seen = 0; return o.child.OpenBatch() }

func (o *batchLimitOp) NextBatch() (*Batch, error) {
	if o.seen >= o.n {
		return nil, nil
	}
	b, err := o.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if rest := o.n - o.seen; b.Len() > rest {
		b.truncate(rest)
	}
	o.seen += b.Len()
	return b, nil
}

func (o *batchLimitOp) CloseBatch() error           { return o.child.CloseBatch() }
func (o *batchLimitOp) Describe() string            { return fmt.Sprintf("Limit(%d)", o.n) }
func (o *batchLimitOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// ------------------------------------------------------- order by dist

// batchOrderByDistOp is the blocking sort on the row distance: it
// drains the child into a pooled batch of its own, stably sorts the
// rows' precomputed keys (rows without a distance sort last; ties keep
// the child's deterministic order) and re-emits blocks in sorted
// order. The planner builds it only where the access path does not
// sort for the ORDER BY itself (see matchList).
type batchOrderByDistOp struct {
	child BatchOperator
	desc  bool
	size  int

	all  *Batch    // every row of the child, in its order
	keys []sortKey // the rows in emission order
	pos  int
	out  *Batch
}

// sortKey is one row of an OrderByDist: its sort key and its index in
// the drained rows.
type sortKey struct {
	d float64
	i int
}

func (o *batchOrderByDistOp) OpenBatch() error {
	o.keys, o.pos = o.keys[:0], 0
	o.all, o.out = getBatch(), getBatch()
	if err := o.child.OpenBatch(); err != nil {
		return err
	}
	for {
		b, err := o.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		o.all.appendRows(b)
	}
	for i, d := range o.all.dist {
		switch {
		case o.all.has[i]:
		case o.desc: // dist-less rows sort last in either direction
			d = math.Inf(-1)
		default:
			d = math.Inf(1)
		}
		o.keys = append(o.keys, sortKey{d: d, i: i})
	}
	slices.SortStableFunc(o.keys, func(a, b sortKey) int {
		if o.desc {
			a, b = b, a
		}
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		}
		return 0
	})
	return nil
}

func (o *batchOrderByDistOp) NextBatch() (*Batch, error) {
	if o.pos >= len(o.keys) {
		return nil, nil
	}
	b := o.out
	b.reset(o.all.width())
	for b.Len() < o.size && o.pos < len(o.keys) {
		b.appendRow(o.all, o.keys[o.pos].i)
		o.pos++
	}
	return b, nil
}

func (o *batchOrderByDistOp) CloseBatch() error {
	o.keys = nil
	putBatch(o.all)
	putBatch(o.out)
	o.all, o.out = nil, nil
	return o.child.CloseBatch()
}

func (o *batchOrderByDistOp) Describe() string {
	if o.desc {
		return "OrderByDist(desc)"
	}
	return "OrderByDist(asc)"
}

func (o *batchOrderByDistOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }
