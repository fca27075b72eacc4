// Package editdp implements the polynomial special case of the PODS'95
// transformation distance: when every rule is a single-symbol insertion,
// deletion or substitution, the minimum-cost rewrite sequence factorises
// per aligned position and weighted edit-distance dynamic programming
// computes the exact distance in O(|x|·|y|) time.
//
// One subtlety makes the DP agree with the general engine
// (internal/transform) on *arbitrary* edit-like rule sets: the rewrite
// system may chain operations at one position (a→c then c→b can be
// cheaper than a→b; insert c then c→b can be cheaper than inserting b).
// The Calculator therefore first closes the cost tables — all-pairs
// shortest substitution paths, then insertions and deletions relaxed
// through those paths — and runs the DP on the closed tables. With that
// closure the per-position factorisation is exact, which the property
// tests cross-check against the search engine.
package editdp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rewrite"
)

// Calculator computes weighted edit distances for one edit-like rule
// set. It is safe for concurrent use.
type Calculator struct {
	rules *rewrite.RuleSet
	ins   [256]float64
	del   [256]float64
	sub   map[[2]byte]float64 // closed substitution costs for mentioned symbols
	syms  []byte              // symbols mentioned by any rule, sorted
	// minIns/minDel are the cheapest closed insertion/deletion costs,
	// used by the banded Within and by admissible filters.
	minIns float64
	minDel float64
	// unit records that the closed tables coincide with the classical
	// unit edit distance over the mentioned symbols; covered is the
	// 256-bit membership bitmap of those symbols. Together they license
	// dispatching a conjunct to the bit-parallel Myers kernel.
	unit    bool
	covered [4]uint64
}

// New builds a Calculator from an edit-like rule set, closing the cost
// tables. It returns an error if the rule set is not edit-like.
func New(rs *rewrite.RuleSet) (*Calculator, error) {
	ec, err := rs.EditCosts()
	if err != nil {
		return nil, fmt.Errorf("editdp: %w", err)
	}

	// Collect the symbols mentioned by any rule.
	mentioned := map[byte]bool{}
	for _, r := range rs.Rules() {
		for i := 0; i < len(r.LHS); i++ {
			mentioned[r.LHS[i]] = true
		}
		for i := 0; i < len(r.RHS); i++ {
			mentioned[r.RHS[i]] = true
		}
	}
	syms := make([]byte, 0, len(mentioned))
	for c := range mentioned {
		syms = append(syms, c)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })

	c := &Calculator{rules: rs, sub: make(map[[2]byte]float64), syms: syms}

	// Closed substitution costs: Floyd–Warshall over mentioned symbols.
	dist := make(map[[2]byte]float64, len(syms)*len(syms))
	get := func(a, b byte) float64 {
		if a == b {
			return 0
		}
		if d, ok := dist[[2]byte{a, b}]; ok {
			return d
		}
		return math.Inf(1)
	}
	for _, a := range syms {
		for _, b := range syms {
			if a != b {
				if d := ec.Sub(a, b); !math.IsInf(d, 1) {
					dist[[2]byte{a, b}] = d
				}
			}
		}
	}
	for _, k := range syms {
		for _, i := range syms {
			ik := get(i, k)
			if math.IsInf(ik, 1) {
				continue
			}
			for _, j := range syms {
				if via := ik + get(k, j); via < get(i, j) {
					dist[[2]byte{i, j}] = via
				}
			}
		}
	}
	for k, v := range dist {
		c.sub[k] = v
	}

	// Closed insertions: ins(c) = min over d of ins(d) + sub*(d, c).
	// Closed deletions:  del(c) = min over d of sub*(c, d) + del(d).
	for i := 0; i < 256; i++ {
		c.ins[i] = ec.Ins(byte(i))
		c.del[i] = ec.Del(byte(i))
	}
	for _, target := range syms {
		for _, d := range syms {
			if v := ec.Ins(d) + get(d, target); v < c.ins[target] {
				c.ins[target] = v
			}
		}
	}
	for _, source := range syms {
		for _, d := range syms {
			if v := get(source, d) + ec.Del(d); v < c.del[source] {
				c.del[source] = v
			}
		}
	}

	c.minIns, c.minDel = math.Inf(1), math.Inf(1)
	for i := 0; i < 256; i++ {
		if c.ins[i] < c.minIns {
			c.minIns = c.ins[i]
		}
		if c.del[i] < c.minDel {
			c.minDel = c.del[i]
		}
	}

	// Detect the classical unit-distance special case on the CLOSED
	// tables: every mentioned symbol inserts and deletes for exactly 1
	// and every mentioned pair substitutes for exactly 1. Rule sets that
	// look unit-cost rule by rule can still fail this (e.g. insert/delete
	// only, where a↔b costs 2 via delete+insert), so the check is what
	// keeps the Myers dispatch bit-identical to the weighted DP.
	c.unit = len(syms) > 0
	for _, a := range syms {
		if c.ins[a] != 1 || c.del[a] != 1 {
			c.unit = false
			break
		}
		for _, b := range syms {
			if a != b && c.SubCost(a, b) != 1 {
				c.unit = false
				break
			}
		}
		if !c.unit {
			break
		}
	}
	for _, a := range syms {
		c.covered[a>>6] |= 1 << (a & 63)
	}
	return c, nil
}

// Unit reports whether the closed cost tables realise the classical
// unit edit distance over the mentioned symbols: distances between
// strings the alphabet Covers equal editdp.Levenshtein exactly, so the
// engine may serve them from the bit-parallel kernel.
func (c *Calculator) Unit() bool { return c.unit }

// Covers reports whether every byte of s is a mentioned symbol — the
// per-string guard for the unit-distance fast path (bytes outside the
// alphabet carry +Inf costs and must go through the weighted DP).
func (c *Calculator) Covers(s string) bool {
	for i := 0; i < len(s); i++ {
		if c.covered[s[i]>>6]&(1<<(s[i]&63)) == 0 {
			return false
		}
	}
	return true
}

// Rules returns the underlying rule set.
func (c *Calculator) Rules() *rewrite.RuleSet { return c.rules }

// MentionedSymbols returns the sorted symbols that occur in any rule.
// Only these can carry finite insertion, deletion or substitution costs;
// internal/patdist iterates over them instead of the whole byte range.
// Callers must not modify the returned slice.
func (c *Calculator) MentionedSymbols() []byte { return c.syms }

// MinInsCost returns the cheapest closed insertion cost over all
// symbols (+Inf if nothing can be inserted).
func (c *Calculator) MinInsCost() float64 { return c.minIns }

// MinDelCost returns the cheapest closed deletion cost over all symbols
// (+Inf if nothing can be deleted).
func (c *Calculator) MinDelCost() float64 { return c.minDel }

// InsCost returns the closed cost of inserting sym (+Inf if impossible).
func (c *Calculator) InsCost(sym byte) float64 { return c.ins[sym] }

// DelCost returns the closed cost of deleting sym (+Inf if impossible).
func (c *Calculator) DelCost(sym byte) float64 { return c.del[sym] }

// SubCost returns the closed cost of rewriting symbol a into b (0 when
// a == b, +Inf if impossible).
func (c *Calculator) SubCost(a, b byte) float64 {
	if a == b {
		return 0
	}
	if d, ok := c.sub[[2]byte{a, b}]; ok {
		return d
	}
	return math.Inf(1)
}

// Distance returns the exact transformation distance from x to y
// (rewriting x into y), or +Inf if y is unreachable from x under the
// rule set. Runs the full O(|x|·|y|) dynamic program with two rows.
func (c *Calculator) Distance(x, y string) float64 {
	n, m := len(x), len(y)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + c.ins[y[j-1]]
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + c.del[x[i-1]]
		for j := 1; j <= m; j++ {
			best := prev[j-1] + c.SubCost(x[i-1], y[j-1])
			if v := prev[j] + c.del[x[i-1]]; v < best {
				best = v
			}
			if v := cur[j-1] + c.ins[y[j-1]]; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// Within returns the distance from x to y if it is at most budget; ok is
// false otherwise. It prunes with a cost band (cells whose length skew
// alone exceeds the budget are never computed) and abandons the DP as
// soon as an entire row exceeds the budget, giving O(band·|x|) time for
// small budgets — the thresholded regime the query engine uses.
func (c *Calculator) Within(x, y string, budget float64) (float64, bool) {
	if budget < 0 {
		return 0, false
	}
	n, m := len(x), len(y)

	// Quick length-skew rejection. Needing net insertions costs at
	// least minIns each; net deletions at least minDel each.
	if m > n && c.minIns > 0 && float64(m-n)*c.minIns > budget {
		return 0, false
	}
	if n > m && c.minDel > 0 && float64(n-m)*c.minDel > budget {
		return 0, false
	}

	// Band half-widths: how far j may stray from i while staying under
	// budget, capped at the string lengths (which also keeps a huge
	// budget from overflowing the conversion). Free insertions/deletions
	// make a side unbounded.
	right := m // j - i <= right
	if c.minIns > 0 && budget/c.minIns < float64(m) {
		right = int(budget / c.minIns)
	}
	left := n // i - j <= left
	if c.minDel > 0 && budget/c.minDel < float64(n) {
		left = int(budget / c.minDel)
	}

	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for j := 1; j <= m && j <= right; j++ {
		prev[j] = prev[j-1] + c.ins[y[j-1]]
	}
	for i := 1; i <= n; i++ {
		lo := i - left
		if lo < 0 {
			lo = 0
		}
		hi := i + right
		if hi > m {
			hi = m
		}
		for j := range cur {
			cur[j] = inf
		}
		if lo == 0 {
			cur[0] = prev[0] + c.del[x[i-1]]
		}
		rowMin := cur[0]
		if lo > 0 {
			rowMin = inf
		}
		for j := lo; j <= hi; j++ {
			if j == 0 {
				continue
			}
			best := inf
			if v := prev[j-1] + c.SubCost(x[i-1], y[j-1]); v < best {
				best = v
			}
			if v := prev[j] + c.del[x[i-1]]; v < best {
				best = v
			}
			if v := cur[j-1] + c.ins[y[j-1]]; v < best {
				best = v
			}
			cur[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > budget {
			return 0, false
		}
		prev, cur = cur, prev
	}
	if prev[m] <= budget {
		return prev[m], true
	}
	return 0, false
}
