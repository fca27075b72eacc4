package query

// Predicate compilation: the engine's one predicate evaluator. A
// predicate compiles once per pipeline, against the statement's slot
// map (slotMap), into a closure chain with everything but the per-row
// work hoisted: rule-set registry lookups, DP calculators, general
// engines and compiled patterns resolve at compile time, and every field
// reference becomes a read of one slot's column. Filters over a single
// relation or a join, the join's probe value and DML's read phase all
// run it.
//
// Per row, AND and OR short-circuit left to right (an error in a branch
// they do not evaluate is not raised) and NOT propagates errors; the
// first similarity conjunct that holds, in evaluation order, sets the
// row's distance unless the row has one already (from a band-walk leaf
// or a join edge). A field naming an unknown alias, or an unqualified
// field over several slots, resolves to its error at compile time but
// raises it on each row that reads it, so a statement that reads it on
// no row succeeds.

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/patdist"
)

// predFn evaluates a compiled predicate on row i of a batch.
type predFn func(b *Batch, i int) (bool, error)

// valFn produces one operand value for row i of a batch.
type valFn func(b *Batch, i int) (string, error)

// setDist gives row i the distance d unless it has one.
func (b *Batch) setDist(i int, d float64) {
	if !b.has[i] {
		b.dist[i], b.has[i] = d, true
	}
}

// errPred is a predicate that fails on every row it is evaluated for.
func errPred(err error) predFn {
	return func(*Batch, int) (bool, error) { return false, err }
}

// compilePred compiles a predicate tree over rows of the given slots.
func (e *Engine) compilePred(ex Expr, slots slotMap) predFn {
	switch ex := ex.(type) {
	case litTrue:
		return func(*Batch, int) (bool, error) { return true, nil }
	case AndExpr:
		l, r := e.compilePred(ex.L, slots), e.compilePred(ex.R, slots)
		return func(b *Batch, i int) (bool, error) {
			v, err := l(b, i)
			if err != nil || !v {
				return false, err
			}
			return r(b, i)
		}
	case OrExpr:
		l, r := e.compilePred(ex.L, slots), e.compilePred(ex.R, slots)
		return func(b *Batch, i int) (bool, error) {
			v, err := l(b, i)
			if err != nil || v {
				return v, err
			}
			return r(b, i)
		}
	case NotExpr:
		inner := e.compilePred(ex.E, slots)
		return func(b *Batch, i int) (bool, error) {
			v, err := inner(b, i)
			if err != nil {
				return false, err
			}
			return !v, nil
		}
	case CmpExpr:
		neq := ex.Neq
		if isIDField(ex.L) && isIDField(ex.R) {
			// Ids compare as integers: the same verdict as their decimal
			// strings, without formatting both per row (a join residual
			// a.id != b.id runs once per joined pair).
			ls, lerr := slots.resolve(ex.L.Field)
			rs, rerr := slots.resolve(ex.R.Field)
			if err := cmp.Or(lerr, rerr); err != nil {
				return errPred(err)
			}
			return func(b *Batch, i int) (bool, error) {
				return (b.slot(ls).IDs[i] == b.slot(rs).IDs[i]) != neq, nil
			}
		}
		l, r := compileOperand(ex.L, slots), compileOperand(ex.R, slots)
		return func(b *Batch, i int) (bool, error) {
			lv, err := l(b, i)
			if err != nil {
				return false, err
			}
			rv, err := r(b, i)
			if err != nil {
				return false, err
			}
			return (lv == rv) != neq, nil
		}
	case SimExpr:
		return e.compileSim(ex, slots)
	case NearestExpr:
		return errPred(fmt.Errorf("query: NEAREST must be the entire WHERE clause"))
	default:
		return errPred(fmt.Errorf("query: unknown expression %T", ex))
	}
}

// compileSim compiles one similarity conjunct with its evaluator — DP
// calculator, general engine, or compiled pattern — resolved up front.
func (e *Engine) compileSim(ex SimExpr, slots slotMap) predFn {
	if isVecSim(&ex) {
		return e.compileVecSim(ex, slots)
	}
	field := compileField(ex.Field, slots)
	radius := ex.Radius

	if ex.Pattern {
		calc := e.calc(ex.RuleSet)
		if calc == nil {
			// An unknown rule set wins over the not-edit-like complaint.
			err := fmt.Errorf("query: pattern similarity requires an edit-like rule set (%q is not)", ex.RuleSet)
			if _, rerr := e.ruleset(ex.RuleSet); rerr != nil {
				err = rerr
			}
			return errSim(field, err)
		}
		p, err := e.compilePattern(ex.Target.Lit)
		if err != nil {
			return errSim(field, err)
		}
		return func(b *Batch, i int) (bool, error) {
			x, err := field(b, i)
			if err != nil {
				return false, err
			}
			d, ok := patdist.Within(calc, x, p, radius)
			if ok {
				b.setDist(i, d)
			}
			return ok, nil
		}
	}

	if ex.Target.IsLit {
		if c := e.calc(ex.RuleSet); c != nil {
			if myersEligible(c, ex.Target.Lit, radius) {
				// Unit-cost conjunct: the bit-parallel Myers kernel, with the
				// target's PEQ table hoisted once per compiled pipeline. Rows
				// containing bytes the rule set never mentions carry +Inf
				// costs under the weighted semantics, so they take the
				// TargetDP fallback — results stay bit-identical to it.
				qdp := editdp.NewQueryDP(ex.Target.Lit)
				fall := c.NewTargetDP(ex.Target.Lit)
				k := int(radius) // exact for integer distances: d <= radius iff d <= floor(radius)
				return func(b *Batch, i int) (bool, error) {
					x, err := field(b, i)
					if err != nil {
						return false, err
					}
					var d float64
					var ok bool
					if c.Covers(x) {
						di, okd := qdp.Within(x, k)
						d, ok = float64(di), okd
					} else {
						d, ok = fall.Within(x, radius)
					}
					if ok {
						b.setDist(i, d)
					}
					return ok, nil
				}
			}
			// The hot path of every scan+filter plan: a literal target under
			// an edit-like rule set runs the vectorized distance kernel —
			// dense per-target cost tables, reused DP rows, bit-identical
			// results (editdp.TargetDP).
			dp := c.NewTargetDP(ex.Target.Lit)
			return func(b *Batch, i int) (bool, error) {
				x, err := field(b, i)
				if err != nil {
					return false, err
				}
				d, ok := dp.Within(x, radius)
				if ok {
					b.setDist(i, d)
				}
				return ok, nil
			}
		}
	}

	target := compileOperand(ex.Target, slots)
	within := e.compileWithin(ex.RuleSet)
	return func(b *Batch, i int) (bool, error) {
		x, err := field(b, i)
		if err != nil {
			return false, err
		}
		y, err := target(b, i)
		if err != nil {
			return false, err
		}
		d, ok, err := within(x, y, radius)
		if err != nil {
			return false, err
		}
		if ok {
			b.setDist(i, d)
		}
		return ok, nil
	}
}

// compileVecSim compiles a vector similarity conjunct with the metric
// resolved up front. The target is the vector literal or, in a join,
// another slot's vec column. Distance comes from metric.Within — the
// shared kernel core of the VP-tree, the join probes and the oracle —
// with the target vector first, matching the tree's operand order, so
// all paths agree bitwise. Rows without a vector never match (their
// distance is undefined, not zero).
func (e *Engine) compileVecSim(ex SimExpr, slots slotMap) predFn {
	fs, err := slots.resolve(ex.Field)
	ts := -1 // the target's slot; -1 for the literal
	switch {
	case err != nil:
	case ex.Target.IsVec:
	case len(slots) == 1:
		// A vec field target names another alias of a join.
		err = fmt.Errorf("query: vec similarity requires a vector literal target")
	case ex.Target.IsLit || ex.Target.Field.Name != "vec":
		err = fmt.Errorf("query: vec similarity requires a vector literal or a vec field target")
	default:
		ts, err = slots.resolve(ex.Target.Field)
	}
	m, ok := metric.Lookup(ex.RuleSet)
	if err == nil && !ok {
		err = fmt.Errorf("query: unknown metric %q", ex.RuleSet)
	}
	if err != nil {
		return errPred(err)
	}
	lit, radius := ex.Target.Vec, ex.Radius
	return func(b *Batch, i int) (bool, error) {
		x, target := b.slot(fs).Vecs[i], lit
		if ts >= 0 {
			target = b.slot(ts).Vecs[i]
		}
		if x == nil || target == nil {
			return false, nil
		}
		d, within := metric.Within(m, target, x, radius)
		if within {
			b.setDist(i, d)
		}
		return within, nil
	}
}

// myersEligible reports whether a literal-target similarity conjunct
// may be served by the bit-parallel Myers kernel: the closed cost
// tables must realise the classical unit distance, the target must be
// covered by the rule alphabet, and the radius must be a usable
// integer budget. compileSim and the planner's kernel record share
// this predicate so EXPLAIN never claims a kernel the filter does not
// run.
func myersEligible(c *editdp.Calculator, target string, radius float64) bool {
	return c.Unit() && c.Covers(target) && radius >= 0 && radius <= math.MaxInt32
}

// filterKernel reports which distance kernel the compiled filter path
// will run for the predicate's first literal-target edit conjunct in
// evaluation order: "myers", "targetdp", or "" when no such conjunct
// exists. Recorded in the plan decision for EXPLAIN.
func (e *Engine) filterKernel(ex Expr) string {
	switch ex := ex.(type) {
	case SimExpr:
		if isVecSim(&ex) {
			if ex.Field.Name == "vec" && ex.Target.IsVec {
				if _, ok := metric.Lookup(ex.RuleSet); ok {
					return "vec-" + ex.RuleSet
				}
			}
			return ""
		}
		if ex.Pattern || !ex.Target.IsLit {
			return ""
		}
		c := e.calc(ex.RuleSet)
		if c == nil {
			return ""
		}
		if myersEligible(c, ex.Target.Lit, ex.Radius) {
			return "myers"
		}
		return "targetdp"
	case AndExpr:
		if k := e.filterKernel(ex.L); k != "" {
			return k
		}
		return e.filterKernel(ex.R)
	case OrExpr:
		if k := e.filterKernel(ex.L); k != "" {
			return k
		}
		return e.filterKernel(ex.R)
	case NotExpr:
		return e.filterKernel(ex.E)
	}
	return ""
}

// compileWithin resolves a string rule set's evaluator — the DP
// calculator, else the general engine — once, out of the per-row path.
func (e *Engine) compileWithin(ruleset string) func(x, y string, radius float64) (float64, bool, error) {
	if c := e.calc(ruleset); c != nil {
		return func(x, y string, radius float64) (float64, bool, error) {
			d, ok := c.Within(x, y, radius)
			return d, ok, nil
		}
	}
	if g := e.general(ruleset); g != nil {
		return g.Distance
	}
	err := fmt.Errorf("query: rule set %q has no usable evaluator", ruleset)
	if _, rerr := e.ruleset(ruleset); rerr != nil {
		err = rerr
	}
	return func(string, string, float64) (float64, bool, error) { return 0, false, err }
}

// errSim is a similarity predicate whose evaluator resolution failed:
// per row it still evaluates the field first, so a field error (e.g.
// dist unavailable) wins over the evaluator error, then fails with the
// evaluator error.
func errSim(field valFn, err error) predFn {
	return func(b *Batch, i int) (bool, error) {
		if _, ferr := field(b, i); ferr != nil {
			return false, ferr
		}
		return false, err
	}
}

// compileOperand compiles an operand: a literal or a field reference.
func compileOperand(o Operand, slots slotMap) valFn {
	if o.IsLit {
		lit := o.Lit
		return func(*Batch, int) (string, error) { return lit, nil }
	}
	return compileField(o.Field, slots)
}

// errNoDist is reading dist on a row no similarity predicate has given
// a distance yet.
var errNoDist = errors.New("query: dist is not available here")

// compileField compiles a field reference: dist reads the row's running
// distance state whatever its qualifier, any other name its slot's
// attribute (relation.Tuple.Attr).
func compileField(f FieldRef, slots slotMap) valFn {
	if f.Name == "dist" {
		return func(b *Batch, i int) (string, error) {
			if !b.has[i] {
				return "", errNoDist
			}
			return formatDist(b.dist[i]), nil
		}
	}
	s, err := slots.resolve(f)
	if err != nil {
		return func(*Batch, int) (string, error) { return "", err }
	}
	name := f.Name
	return func(b *Batch, i int) (string, error) { return b.slot(s).Tuple(i).Attr(name), nil }
}

// isIDField reports whether an operand reads a row's id.
func isIDField(o Operand) bool { return !o.IsLit && o.Field.Name == "id" }
