package editdp

import "math"

// TargetDP is the vectorized distance kernel behind the query engine's
// batch filter: a banded weighted-edit-distance evaluator specialised
// to ONE fixed target string, verified against many candidates. Two
// per-candidate costs of Calculator.Within are hoisted to construction
// time:
//
//   - the closed substitution costs along the target become a dense
//     per-position [256] table (subY), so the DP inner loop does pure
//     array arithmetic instead of a hash-map lookup per cell;
//   - the DP row buffers are owned by the kernel and reused across
//     candidates, so a scan verifies millions of rows with zero
//     allocations.
//
// The DP loop structure, comparison order and arithmetic are identical
// to Calculator.Within/Distance, so results are bit-identical — the
// batch/row parity oracle depends on that.
//
// A TargetDP is NOT safe for concurrent use (it owns scratch rows);
// each operator of a query pipeline builds its own.
type TargetDP struct {
	c    *Calculator
	y    string
	insY []float64      // insY[j] = closed insertion cost of y[j]
	subY [][256]float64 // subY[j][a] = closed substitution cost a -> y[j]
	prev []float64
	cur  []float64
}

// NewTargetDP builds the dense target tables; cost is O(256·|y|) map
// lookups, paid once per (operator, target) instead of once per DP
// cell.
func (c *Calculator) NewTargetDP(y string) *TargetDP {
	m := len(y)
	t := &TargetDP{
		c:    c,
		y:    y,
		insY: make([]float64, m),
		subY: make([][256]float64, m),
		prev: make([]float64, m+1),
		cur:  make([]float64, m+1),
	}
	for j := 0; j < m; j++ {
		t.insY[j] = c.ins[y[j]]
		for a := 0; a < 256; a++ {
			t.subY[j][a] = c.SubCost(byte(a), y[j])
		}
	}
	return t
}

// Target returns the fixed target string.
func (t *TargetDP) Target() string { return t.y }

// Within is Calculator.Within(x, target, budget) with the hoisted
// tables and reused rows; identical results, zero allocations.
func (t *TargetDP) Within(x string, budget float64) (float64, bool) {
	if budget < 0 {
		return 0, false
	}
	c := t.c
	n, m := len(x), len(t.y)

	if m > n && c.minIns > 0 && float64(m-n)*c.minIns > budget {
		return 0, false
	}
	if n > m && c.minDel > 0 && float64(n-m)*c.minDel > budget {
		return 0, false
	}

	right := m
	if c.minIns > 0 && budget/c.minIns < float64(m) {
		right = int(budget / c.minIns)
	}
	left := n
	if c.minDel > 0 && budget/c.minDel < float64(n) {
		left = int(budget / c.minDel)
	}

	inf := math.Inf(1)
	prev, cur := t.prev, t.cur
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for j := 1; j <= m && j <= right; j++ {
		prev[j] = prev[j-1] + t.insY[j-1]
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
		delX := c.del[x[i-1]]
		if lo == 0 {
			cur[0] = prev[0] + delX
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
			if v := prev[j-1] + t.subY[j-1][x[i-1]]; v < best {
				best = v
			}
			if v := prev[j] + delX; v < best {
				best = v
			}
			if v := cur[j-1] + t.insY[j-1]; v < best {
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
	// prev/cur swap in place; remember the final assignment for reuse.
	t.prev, t.cur = prev, cur
	if prev[m] <= budget {
		return prev[m], true
	}
	return 0, false
}

// Distance is Calculator.Distance(x, target) with the hoisted tables
// and reused rows.
func (t *TargetDP) Distance(x string) float64 {
	c := t.c
	n, m := len(x), len(t.y)
	prev, cur := t.prev, t.cur
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + t.insY[j-1]
	}
	for i := 1; i <= n; i++ {
		delX := c.del[x[i-1]]
		cur[0] = prev[0] + delX
		for j := 1; j <= m; j++ {
			best := prev[j-1] + t.subY[j-1][x[i-1]]
			if v := prev[j] + delX; v < best {
				best = v
			}
			if v := cur[j-1] + t.insY[j-1]; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	t.prev, t.cur = prev, cur
	return prev[m]
}
