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

// newBandWalk returns a walk for target with no bound. unit must be
// unitCost of calc's rule set, which the registry computes once per
// rule set.
func newBandWalk(calc *editdp.Calculator, unit bool, target string) *bandWalk {
	w := &bandWalk{calc: calc, unit: unit}
	w.reset(target)
	w.setBound(math.Inf(1))
	return w
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

// bandWalk resolves the rule set's calculator for a walk. The planner
// routes only edit-like rule sets here, so a missing calculator means
// the rule set was re-registered between planning and opening.
func (e *Engine) bandWalk(ruleSet, target string) (*bandWalk, error) {
	ent, _ := e.rule(ruleSet)
	if ent == nil || ent.calc == nil {
		return nil, fmt.Errorf("query: stale plan: rule set %q has no calculator", ruleSet)
	}
	return newBandWalk(ent.calc, ent.unit, target), nil
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
// the bound. It returns the walk's work counters: Candidates are the
// rows of the visited bands, Verifications the distance computations.
func (w *bandWalk) walk(snap *relation.Snapshot, covered bool, emit func(row *relation.Row, d float64)) ExecStats {
	var st ExecStats
	bands := snap.LengthView().Bands(len(w.target))
	for b, ok := bands.Next(); ok; b, ok = bands.Next() {
		if delta := b.Len - len(w.target); w.bounded && max(delta, -delta) > w.ibound {
			break
		}
		w.band(b, 0, snap, covered, emit, &st)
	}
	return st
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
