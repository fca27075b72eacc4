package query

// Predicate compilation for the filter. The interpreted evaluator
// (evalExpr) walks the Expr tree per candidate, paying an interface
// type-switch per node, a rule-set registry lookup (an RWMutex
// acquisition) per similarity conjunct and an alias resolution per
// field — per row. The filter compiles a single-alias predicate once
// per pipeline into a closure chain with all of that hoisted:
// calculators, general engines and compiled patterns are resolved at
// compile time, field references become direct tuple accessors, and
// the per-row work collapses to the distance computation itself.
//
// Semantics are pinned to evalExpr: evaluation order, short-circuiting
// (including unsurfaced errors in unevaluated branches), the
// first-matching-similarity-sets-dist rule and every error message are
// identical, so the two evaluators are interchangeable row for row
// (the filter falls back to evalExpr for shapes it cannot compile and
// for the multi-alias rows above a join).

import (
	"fmt"
	"math"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/patdist"
	"repro/internal/relation"
)

// predFn evaluates a compiled predicate against one columnar row; dist
// and has mirror binding.dist/.hasDist.
type predFn func(t *relation.Tuple, dist *float64, has *bool) (bool, error)

// valFn produces one operand value for a columnar row.
type valFn func(t *relation.Tuple, dist *float64, has *bool) (string, error)

// compilePred compiles a single-alias predicate tree, or returns nil
// for shapes it does not cover (the batch filter then falls back to
// evalExpr on a scratch binding, so coverage gaps cost speed, never
// correctness).
func (e *Engine) compilePred(ex Expr, alias string) predFn {
	switch ex := ex.(type) {
	case litTrue:
		return func(*relation.Tuple, *float64, *bool) (bool, error) { return true, nil }
	case AndExpr:
		l, r := e.compilePred(ex.L, alias), e.compilePred(ex.R, alias)
		if l == nil || r == nil {
			return nil
		}
		return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
			v, err := l(t, dist, has)
			if err != nil || !v {
				// Short-circuit: a false conjunct decides the AND; errors in
				// the unevaluated right side are not surfaced (see evalExpr).
				return false, err
			}
			return r(t, dist, has)
		}
	case OrExpr:
		l, r := e.compilePred(ex.L, alias), e.compilePred(ex.R, alias)
		if l == nil || r == nil {
			return nil
		}
		return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
			v, err := l(t, dist, has)
			if err != nil || v {
				return v, err
			}
			return r(t, dist, has)
		}
	case NotExpr:
		inner := e.compilePred(ex.E, alias)
		if inner == nil {
			return nil
		}
		return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
			v, err := inner(t, dist, has)
			if err != nil {
				return false, err
			}
			return !v, nil
		}
	case CmpExpr:
		neq := ex.Neq
		if isIDField(ex.L) && isIDField(ex.R) {
			// Both sides read the one row's id (see evalExpr): equal,
			// unless an operand names a foreign alias.
			err := aliasErr(ex.L.Field, alias)
			if err == nil {
				err = aliasErr(ex.R.Field, alias)
			}
			return func(*relation.Tuple, *float64, *bool) (bool, error) { return err == nil && !neq, err }
		}
		l, r := compileOperand(ex.L, alias), compileOperand(ex.R, alias)
		return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
			lv, err := l(t, dist, has)
			if err != nil {
				return false, err
			}
			rv, err := r(t, dist, has)
			if err != nil {
				return false, err
			}
			if neq {
				return lv != rv, nil
			}
			return lv == rv, nil
		}
	case SimExpr:
		return e.compileSim(ex, alias)
	case NearestExpr:
		return func(*relation.Tuple, *float64, *bool) (bool, error) {
			return false, fmt.Errorf("query: NEAREST must be the entire WHERE clause")
		}
	default:
		return nil
	}
}

// compileSim compiles one similarity conjunct with its evaluator — DP
// calculator, general engine, or compiled pattern — resolved up front.
func (e *Engine) compileSim(ex SimExpr, alias string) predFn {
	if isVecSim(&ex) {
		return e.compileVecSim(ex, alias)
	}
	field := compileField(ex.Field, alias)
	radius := ex.Radius

	if ex.Pattern {
		calc := e.calc(ex.RuleSet)
		if calc == nil {
			// Resolve the exact evalExpr error once: unknown rule set wins
			// over the not-edit-like complaint, as in patternWithin.
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
		return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
			x, err := field(t, dist, has)
			if err != nil {
				return false, err
			}
			d, ok := patdist.Within(calc, x, p, radius)
			if ok && !*has {
				*dist, *has = d, true
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
				return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
					x, err := field(t, dist, has)
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
					if ok && !*has {
						*dist, *has = d, true
					}
					return ok, nil
				}
			}
			// The hot path of every scan+filter plan: a literal target under
			// an edit-like rule set runs the vectorized distance kernel —
			// dense per-target cost tables, reused DP rows, bit-identical
			// results (editdp.TargetDP).
			dp := c.NewTargetDP(ex.Target.Lit)
			return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
				x, err := field(t, dist, has)
				if err != nil {
					return false, err
				}
				d, ok := dp.Within(x, radius)
				if ok && !*has {
					*dist, *has = d, true
				}
				return ok, nil
			}
		}
	}

	target := compileOperand(ex.Target, alias)
	within := e.compileWithin(ex.RuleSet)
	return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
		x, err := field(t, dist, has)
		if err != nil {
			return false, err
		}
		y, err := target(t, dist, has)
		if err != nil {
			return false, err
		}
		d, ok, err := within(x, y, radius)
		if err != nil {
			return false, err
		}
		if ok && !*has {
			*dist, *has = d, true
		}
		return ok, nil
	}
}

// compileVecSim compiles a vector similarity conjunct with the metric
// resolved up front. Distance comes from metric.Within — the same
// shared kernel core as evalSim, the VP-tree and the oracle —
// with the target vector first, matching the tree's operand order, so
// all paths agree bitwise. Error precedence mirrors evalVecSim: the
// alias resolution fails per row before any hoisted shape error.
func (e *Engine) compileVecSim(ex SimExpr, alias string) predFn {
	var aliasErr error
	if ex.Field.Table != "" && ex.Field.Table != alias {
		aliasErr = fmt.Errorf("query: unknown alias %q", ex.Field.Table)
	}
	var hoisted error
	if !ex.Target.IsVec {
		hoisted = fmt.Errorf("query: vec similarity requires a vector literal target")
	}
	m, ok := metric.Lookup(ex.RuleSet)
	if hoisted == nil && !ok {
		hoisted = fmt.Errorf("query: unknown metric %q", ex.RuleSet)
	}
	target, radius := ex.Target.Vec, ex.Radius
	return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
		if aliasErr != nil {
			return false, aliasErr
		}
		if hoisted != nil {
			return false, hoisted
		}
		if t.Vec == nil {
			return false, nil
		}
		d, within := metric.Within(m, target, t.Vec, radius)
		if within && !*has {
			*dist, *has = d, true
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

// compileWithin hoists Engine.within's evaluator resolution (two
// registry lookups behind an RWMutex) out of the per-row path.
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
// per row it still evaluates the field first — evalExpr does, so a
// field error (e.g. dist unavailable) must win over the hoisted
// evaluator error to keep error parity — then fails with the fixed
// error.
func errSim(field valFn, err error) predFn {
	return func(t *relation.Tuple, dist *float64, has *bool) (bool, error) {
		if _, ferr := field(t, dist, has); ferr != nil {
			return false, ferr
		}
		return false, err
	}
}

// compileOperand mirrors operandValue: a literal or a field reference.
func compileOperand(o Operand, alias string) valFn {
	if o.IsLit {
		lit := o.Lit
		return func(*relation.Tuple, *float64, *bool) (string, error) { return lit, nil }
	}
	return compileField(o.Field, alias)
}

// compileField mirrors fieldValue over a single-alias row: dist reads
// the running distance state, any other name resolves on the tuple, and
// a foreign alias fails exactly like fieldValue's lookup.
func compileField(f FieldRef, alias string) valFn {
	if f.Name == "dist" {
		return func(_ *relation.Tuple, dist *float64, has *bool) (string, error) {
			if !*has {
				return "", errNoDist
			}
			return formatDist(*dist), nil
		}
	}
	if err := aliasErr(f, alias); err != nil {
		return func(*relation.Tuple, *float64, *bool) (string, error) { return "", err }
	}
	name := f.Name
	return func(t *relation.Tuple, _ *float64, _ *bool) (string, error) { return t.Attr(name), nil }
}

// aliasErr is fieldTuple's error for a field of a single-alias row: a
// foreign alias is unknown.
func aliasErr(f FieldRef, alias string) error {
	if f.Table != "" && f.Table != alias {
		return fmt.Errorf("query: unknown alias %q", f.Table)
	}
	return nil
}
