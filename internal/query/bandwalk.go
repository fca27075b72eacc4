package query

// The length-band walk: the one access path of every string query
// whose rule set charges at least one per edit — NEAREST k, WITHIN r
// and the probe of a seq distance join. It reads a snapshot's
// length-ordered view (relation.LengthView) outward from the target's
// length and refines each row in three steps, cheapest first:
//
//  1. the length difference, a lower bound on the distance: the walk
//     stops at the first band farther than the bound;
//  2. the row's byte-frequency signature (index.ByteSig), a second
//     lower bound: the target's capped per-class surplus over the row
//     (one popcount per word, index.NextWithin over the band's dense
//     signature column) plus the row's excess length; a row whose bag
//     of bytes is farther is skipped;
//  3. the exact distance, compared with the bound.
//
// Both lower bounds hold for the rule set's own distance, not just for
// Levenshtein: every edit of a unit-cost rule set costs at least one,
// so its distance is at least the Levenshtein distance of the same two
// strings. The exact step runs the bit-parallel Myers kernel only where
// it computes that distance — the closed cost tables are the unit edit
// distance and both strings lie inside the rule alphabet — and the
// rule set's own DP (editdp.TargetDP, +Inf across a byte the rules
// never mention) everywhere else, so every path agrees with the scan.
// For a target of 1–15 bytes over a covered snapshot, the walk gathers
// a band's next editdp.RowLanes rows that pass step 2 and runs them
// through one lane-packed Myers call (QueryDP.DistanceRows); every
// other row runs alone, with Myers cut off at the bound. A group's rows
// are tested against the bound and emitted in row order, the bound
// re-read per row, so a NEAREST bound that tightens inside a group
// still applies to the group's later rows.
//
// The view holds a superset of the snapshot; visibility is checked only
// for the few rows that pass the distance test, before they reach the
// caller. Weighted rule sets have neither lower bound and verify every
// row (NEAREST is their only user).

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/relation"
)

// bandWalk verifies one target against the rows of length views under
// one rule set. It is not safe for concurrent use (the kernels reuse
// their DP buffers); a caller with many targets keeps one walk and
// resets it per target.
type bandWalk struct {
	calc   *editdp.Calculator
	unit   bool // unitCost: the length and signature bounds apply
	target string
	qsig   index.ByteSig
	myers  bool // Myers computes the rule set's distance to target: qdp serves
	qdp    editdp.QueryDP
	tdp    *editdp.TargetDP // built on first use per target

	// bound is the inclusive distance bound (+Inf: none); ibound is its
	// floor, which the integer unit-cost distances compare with; bounded
	// says the length and signature cut-offs apply.
	bound   float64
	ibound  int
	bounded bool
}

// init readies w for target with no bound under calc, keeping its
// kernels' buffers.
func (w *bandWalk) init(calc *editdp.Calculator, unit bool, target string) {
	w.calc, w.unit = calc, unit
	w.reset(target)
	w.setBound(math.Inf(1))
}

// reset retargets the walk in place, keeping its bound and its kernels'
// buffers.
func (w *bandWalk) reset(target string) { w.resetSig(target, index.NewByteSig(target)) }

// resetSig is reset for a target whose signature the caller holds.
func (w *bandWalk) resetSig(target string, sig index.ByteSig) {
	w.target, w.qsig, w.tdp = target, sig, nil
	w.myers = w.calc.Unit() && w.calc.Covers(target)
	if w.myers {
		w.qdp.Reset(target)
	}
}

// setBound makes b the inclusive bound of every later verification; a
// NEAREST walk tightens it as its best list fills.
func (w *bandWalk) setBound(b float64) {
	w.bound = b
	w.bounded = w.unit && !math.IsInf(b, 1)
	w.ibound = math.MaxInt32
	if b < math.MaxInt32 {
		w.ibound = int(math.Floor(b))
	}
}

// covers reports whether a walk over snap may skip the per-row alphabet
// test: no row visible there holds a byte outside calc's alphabet. Rows
// the view holds beyond the snapshot may, but they are invisible and
// never reach the caller, whatever distance they get.
func covers(calc *editdp.Calculator, snap *relation.Snapshot) bool {
	return calc.Covers(snap.Alphabet())
}

// verify returns the rule set's distance from seq to the target and
// whether it is within the bound (finite, when there is none).
// covered is covers for the snapshot seq came from.
func (w *bandWalk) verify(seq string, covered bool) (float64, bool) {
	finite := !math.IsInf(w.bound, 1)
	if w.myers && (covered || w.calc.Covers(seq)) {
		if finite {
			d, ok := w.qdp.Within(seq, w.ibound)
			return float64(d), ok
		}
		return float64(w.qdp.Distance(seq)), true
	}
	if w.tdp == nil {
		w.tdp = w.calc.NewTargetDP(w.target)
	}
	if finite {
		return w.tdp.Within(seq, w.bound)
	}
	d := w.tdp.Distance(seq)
	return d, d < infCut
}

// walk visits snap's length view outward from the target's length and
// hands every visible row within the bound to emit, which may tighten
// the bound. It returns the walk's work counters — Candidates are the
// rows of the visited bands, Verifications the distance computations —
// and, when ctx is done before a band, ctx's error.
func (w *bandWalk) walk(ctx *execCtx, snap *relation.Snapshot, covered bool, emit func(row *relation.Row, d float64)) (ExecStats, error) {
	var st ExecStats
	bands := snap.LengthView().Bands(len(w.target))
	for b, ok := bands.Next(); ok; b, ok = bands.Next() {
		if delta := b.Len - len(w.target); w.bounded && max(delta, -delta) > w.ibound {
			break
		}
		if err := ctx.err(); err != nil {
			return st, err
		}
		w.band(b, 0, snap, covered, emit, &st)
	}
	return st, nil
}

// band verifies the rows of one band from entry from on, counting them
// into st: the signature test, then the exact distance, emitting every
// visible row within the bound.
func (w *bandWalk) band(b relation.Band, from int, snap *relation.Snapshot, covered bool,
	emit func(row *relation.Row, d float64), st *ExecStats) {
	var (
		at    [editdp.RowLanes]int // band indices of the group's rows
		seqs  [editdp.RowLanes]string
		dists [editdp.RowLanes]int
	)
	st.Candidates += len(b.Ents) - from
	longer := max(b.Len-len(w.target), 0)
	packed := w.myers && covered && w.qdp.PacksRows(b.Len)
	group := 1
	if packed {
		group = editdp.RowLanes
	}
	for i := from; ; {
		n := 0
		for ; n < group && i < len(b.Ents); i++ {
			// Skip only rows whose bound is strictly greater: a row at
			// exactly the bound can still qualify (and, for NEAREST,
			// displace an equally distant row with a larger id). The
			// threshold is re-read for every group, as emit may have
			// tightened it.
			if w.bounded {
				if i = index.NextWithin(b.Sigs, w.qsig, w.ibound-longer, i); i == len(b.Ents) {
					break
				}
			}
			at[n], seqs[n] = i, b.Ents[i].Seq
			n++
		}
		if n == 0 {
			return
		}
		st.Verifications += n
		if packed {
			w.qdp.DistanceRows(seqs[:n], dists[:n])
		}
		for j, r := range at[:n] {
			var d float64
			var within bool
			if packed {
				d, within = float64(dists[j]), dists[j] <= w.ibound
			} else {
				d, within = w.verify(seqs[j], covered)
			}
			if !within {
				st.Abandoned++
				continue
			}
			if e := &b.Ents[r]; snap.VisibleRow(e.Row) {
				emit(e.Row, d)
			}
		}
	}
}

// ------------------------------------------------------------ the probe

// lengthViewProbe runs the band walk as a probe (probe.go): over a
// leaf's literal target, or over a join's probe value, read per outer
// row. A join edge's walk measures d(inner, probe) where the predicate
// may name d(probe, inner); the unit-cost rule sets it serves are
// symmetric and their distances integers, so the two agree exactly.
//
// A self-join step that drops the pairs of a row with itself verifies
// each unordered pair once (symmetricSelfJoin decides when): from outer
// row x it walks only the inner rows with a larger id, emits each match
// (x, y) and keeps its mirror (y, x, d) in a min-heap ordered by (y, x).
// The distance is symmetric, so d is the mirror's distance too. The
// outer scan and every band ascend in id, so y's turn as the outer row
// comes later: its mirrors come out first (ids below y), then its own
// matches (above y) — the order of the walk over every pair, minus the
// self pairs the residual filter drops. Each band keeps a cursor at its
// first row above the last probe, which only moves forward, and x's
// signature is read from its own band entry. A parallel slice walks the
// same range for its own rows and hands out, after its outer stream
// ends, the mirrors whose larger row a later slice owns (rest), in
// (y, x) order: the id-ordered gather takes equal slot-0 ids from the
// lower stream first, so it rebuilds the serial order. The heap holds at
// most the pairs whose larger row has not been probed yet: for a join
// at radius +Inf, up to half the output.
type lengthViewProbe struct {
	probeBase
	calc      *editdp.Calculator // the rule set's at planning (the kernel label)
	symmetric bool               // a self-join step that verifies each unordered pair once
	val       valFn              // a join's probe value over the outer slots

	w       *bandWalk // from walkPool between open and release
	snap    *relation.Snapshot
	covered bool
	pairs   *pairWalk // the symmetric walk's state
}

func (p *lengthViewProbe) clone() probe                  { c := *p; return &c }
func (p *lengthViewProbe) ensure(rel *relation.Relation) { rel.LengthView() }
func (p *lengthViewProbe) setBound(bound float64)        { p.w.setBound(bound) }
func (p *lengthViewProbe) kernel() string                { return bandKernel(p.calc, p.sim.Target.Lit) }

func (p *lengthViewProbe) bind(slots slotMap) error {
	p.val = compileField(p.field, slots)
	return nil
}

// open resolves the rule set's calculator for the walk. The planner
// routes only edit-like rule sets here, so a missing calculator means
// the rule set was re-registered between planning and opening.
func (p *lengthViewProbe) open(ctx *execCtx, snap *relation.Snapshot) (ExecStats, error) {
	ent, _ := ctx.eng.rule(p.sim.RuleSet)
	if ent == nil || ent.calc == nil {
		return ExecStats{}, fmt.Errorf("query: stale plan: rule set %q has no calculator", p.sim.RuleSet)
	}
	p.w = walkPool.Get().(*bandWalk)
	p.w.init(ent.calc, ent.unit, p.sim.Target.Lit)
	p.w.setBound(p.sim.Radius)
	p.snap, p.covered = snap, covers(ent.calc, snap)
	if p.symmetric {
		bands := snap.LengthView().AllBands()
		p.pairs = &pairWalk{bands: bands, next: make([]int, len(bands))}
	}
	return ExecStats{}, nil
}

func (p *lengthViewProbe) aim(b *Batch, i int) (bool, error) {
	pv, err := p.val(b, i)
	switch {
	case err != nil:
		return false, err
	case p.pairs != nil:
		return true, p.pairs.aim(p.w, b.slot(0).IDs[i], pv)
	}
	p.w.reset(pv)
	return true, nil
}

func (p *lengthViewProbe) walk(ctx *execCtx, sink rowSink) (ExecStats, error) {
	if p.pairs != nil {
		return p.pairs.walk(ctx, p.w, p.snap, p.covered, sink)
	}
	st, err := p.w.walk(ctx, p.snap, p.covered, func(row *relation.Row, d float64) { sink.take(&row.Tuple, d) })
	if p.k > 0 && err == nil {
		observeVisited(mNearestVisitedSeq, st.Verifications, p.snap.Len())
	}
	return st, err
}

// walkPool recycles band walks, whose 2 KB Myers table a short
// statement would otherwise allocate and zero every time.
var walkPool = sync.Pool{New: func() any { return new(bandWalk) }}

func (p *lengthViewProbe) release() {
	if p.w != nil {
		walkPool.Put(p.w)
		p.w = nil
	}
}

func (p *lengthViewProbe) rest() (outer, inner *relation.Tuple, d float64, ok bool) {
	if p.pairs == nil || len(p.pairs.mirrors) == 0 {
		return nil, nil, 0, false
	}
	m := p.pairs.mirrors.pop()
	return &m.outer.Tuple, &m.inner.Tuple, m.d, true
}

func (p *lengthViewProbe) explain(shard, order string) string {
	switch {
	case p.join() && p.symmetric:
		return p.joinLabel("lengthview", ", symmetric")
	case p.join():
		return p.joinLabel("lengthview", "")
	case p.k > 0:
		return fmt.Sprintf("NearestK(%s%s, k=%d, ruleset=%s%s)", p.alias, shard, p.k, p.sim.RuleSet, order)
	}
	return fmt.Sprintf("IndexRange(%s via lengthview%s, target=%s, radius=%g, ruleset=%s%s)",
		p.alias, shard, p.sim.Target.Lit, p.sim.Radius, p.sim.RuleSet, order)
}

func (p *lengthViewProbe) estimate(outer float64, inner relation.Stats) (rows, cost float64) {
	if p.k > 0 {
		return estNearestRows(inner.Count, p.k), 0
	}
	r := p.sim.Radius
	return joinOutRows(outer, inner, r), lengthBandJoinCost(outer, inner, math.Floor(r))
}

// pairWalk is the probe state of a symmetric self-join step.
type pairWalk struct {
	bands   []relation.Band // the inner view's bands at open, ascending length
	next    []int           // per band: its first entry whose id is not below the last probe's
	x       *relation.Row   // the outer row being probed
	own     int             // x's band
	mirrors mirrorHeap
}

// mirror is a match (outer, inner) found by inner's probe, waiting for
// outer's turn; oid and iid are their ids, the heap's keys.
type mirror struct {
	oid, iid     int
	outer, inner *relation.Row
	d            float64
}

// mirrorHeap is a binary min-heap of mirrors by (oid, iid).
type mirrorHeap []mirror

func (h mirrorHeap) less(i, j int) bool {
	return h[i].oid < h[j].oid || h[i].oid == h[j].oid && h[i].iid < h[j].iid
}

func (h *mirrorHeap) push(m mirror) {
	*h = append(*h, m)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *mirrorHeap) pop() mirror {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// skip moves band j's cursor past the entries whose id is below id and
// returns it.
func (p *pairWalk) skip(j, id int) int {
	ents, i := p.bands[j].Ents, p.next[j]
	for i < len(ents) && ents[i].Row.ID < id {
		i++
	}
	p.next[j] = i
	return i
}

// aim finds the outer row (id, seq) in its own band and retargets w at
// it with the signature stored there.
func (p *pairWalk) aim(w *bandWalk, id int, seq string) error {
	bands, n := p.bands, len(seq)
	own := sort.Search(len(bands), func(j int) bool { return bands[j].Len >= n })
	at := -1
	if own < len(bands) && bands[own].Len == n {
		at = p.skip(own, id)
	}
	if at < 0 || at == len(bands[own].Ents) || bands[own].Ents[at].Row.ID != id {
		return fmt.Errorf("query: self-join row %d is missing from its length view", id)
	}
	p.x, p.own = bands[own].Ents[at].Row, own
	w.resetSig(seq, bands[own].Sigs[at])
	return nil
}

// walk emits the mirrors earlier probes left for the outer row, then
// walks the inner rows of its length window whose id is above its own,
// keeping each match's mirror, until ctx is done before a band.
func (p *pairWalk) walk(ctx *execCtx, w *bandWalk, snap *relation.Snapshot, covered bool, sink rowSink) (ExecStats, error) {
	var st ExecStats
	x := p.x
	for len(p.mirrors) > 0 && p.mirrors[0].oid == x.ID {
		m := p.mirrors.pop()
		sink.take(&m.inner.Tuple, m.d)
	}
	emit := func(row *relation.Row, d float64) {
		sink.take(&row.Tuple, d)
		p.mirrors.push(mirror{oid: row.ID, iid: x.ID, outer: row, inner: x, d: d})
	}
	bands, n, k := p.bands, len(w.target), w.ibound
	for j := sort.Search(len(bands), func(j int) bool { return bands[j].Len >= n-k }); j < len(bands) && bands[j].Len <= n+k; j++ {
		if err := ctx.err(); err != nil {
			return st, err
		}
		from := p.skip(j, x.ID)
		if j == p.own {
			from++ // x itself
		}
		w.band(bands[j], from, snap, covered, emit, &st)
	}
	return st, nil
}
