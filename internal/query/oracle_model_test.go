package query

// The brute-force model the parity oracles hold the engine against. It
// evaluates the PARSED statement — the AST is the one thing it shares
// with the engine — over the oracleDB rows, one row at a time, and never
// touches the planner, an operator or internal/index: every distance is
// the rule set's own, the full-matrix Calculator.Distance (patdist.Within
// for patterns), so a byte outside the rule alphabet costs +Inf to edit,
// and NEAREST is a full sort by (dist, id) of the finite ones. Comparing
// block size 1 with block size 256 shows the engine agrees with itself;
// comparing either with this model shows it is right.
//
// The model's language is single-relation statements over "words" under
// the unit "edits" rule set (NEAREST also under "gaps"), with any number
// of similarity predicates: a row's dist is that of the first one that
// matches it in evaluation order, whichever conjunct the access path
// serves. Anything else — and any statement whose evaluation would hit
// an engine error, like reading dist before a conjunct set it — returns
// errUnmodeled, which the fuzz target skips and the oracles, whose
// generators stay inside the language, treat as a failure. Every modeled
// statement has an engine-defined total order — ascending id, NEAREST by
// (dist, id), ORDER BY dist a stable sort of either — so replies are
// compared positionally.

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/editdp"
	"repro/internal/patdist"
	"repro/internal/pattern"
	"repro/internal/rewrite"
)

var errUnmodeled = errors.New("statement outside the model's language")

// modelRow is one candidate row with the distance the predicate
// assigned it (first similarity conjunct that matched, like evalExpr).
type modelRow struct {
	oracleRow
	dist float64
	has  bool
}

// modelResult is what a SELECT must return, in order, after LIMIT.
type modelResult struct {
	rows [][]string
}

// editsCalc is the calculator of the oracles' unit "edits" set.
var editsCalc = func() *editdp.Calculator {
	c, err := editdp.New(rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules()))
	if err != nil {
		panic(err)
	}
	return c
}()

// gapsRules is the oracles' weighted rule set: unit substitutions but
// insertions and deletions at a quarter, so a row many bytes longer or
// shorter than the target can be nearer than one of the target's own
// length — the case a length cut-off borrowed from the unit distance
// would dismiss.
var gapsRules = func() *rewrite.RuleSet {
	var rules []rewrite.Rule
	for i := 0; i < len(oracleAlphabet); i++ {
		c := oracleAlphabet[i]
		rules = append(rules, rewrite.Insert(c, 0.25), rewrite.Delete(c, 0.25))
		for j := 0; j < len(oracleAlphabet); j++ {
			if d := oracleAlphabet[j]; d != c {
				rules = append(rules, rewrite.Subst(c, d, 1))
			}
		}
	}
	return rewrite.MustRuleSet("gaps", rules)
}()

var gapsCalc = func() *editdp.Calculator {
	c, err := editdp.New(gapsRules)
	if err != nil {
		panic(err)
	}
	return c
}()

func (o *oracleDB) field(f FieldRef, alias string, r *modelRow) (string, error) {
	if f.Table != "" && f.Table != alias {
		return "", errUnmodeled
	}
	switch f.Name {
	case "dist":
		if !r.has {
			return "", errUnmodeled
		}
		return formatDist(r.dist), nil
	case "id":
		return strconv.Itoa(r.id), nil
	case "seq":
		return r.seq, nil
	case "tag":
		return r.tag, nil
	case "vec":
		return "", errUnmodeled
	}
	return "", nil // absent attributes read as ""
}

func (o *oracleDB) operand(op Operand, alias string, r *modelRow) (string, error) {
	if op.IsLit {
		return op.Lit, nil
	}
	if op.IsVec || op.Param != nil {
		return "", errUnmodeled
	}
	return o.field(op.Field, alias, r)
}

// eval mirrors evalExpr's short-circuit order, which decides both
// which conjunct's distance a row keeps and which errors surface.
func (o *oracleDB) eval(ex Expr, alias string, r *modelRow) (bool, error) {
	switch ex := ex.(type) {
	case nil:
		return true, nil
	case AndExpr:
		if l, err := o.eval(ex.L, alias, r); err != nil || !l {
			return false, err
		}
		return o.eval(ex.R, alias, r)
	case OrExpr:
		if l, err := o.eval(ex.L, alias, r); err != nil || l {
			return l, err
		}
		return o.eval(ex.R, alias, r)
	case NotExpr:
		v, err := o.eval(ex.E, alias, r)
		return !v, err
	case CmpExpr:
		l, err := o.operand(ex.L, alias, r)
		if err != nil {
			return false, err
		}
		rv, err := o.operand(ex.R, alias, r)
		if err != nil {
			return false, err
		}
		return (l == rv) != ex.Neq, nil
	case SimExpr:
		if ex.RuleSet != "edits" || isVecSim(&ex) || ex.RadiusParam != nil || math.IsNaN(ex.Radius) {
			return false, errUnmodeled
		}
		x, err := o.field(ex.Field, alias, r)
		if err != nil {
			return false, err
		}
		var d float64
		var ok bool
		if ex.Pattern {
			p, err := pattern.Compile(ex.Target.Lit)
			if err != nil {
				return false, errUnmodeled
			}
			d, ok = patdist.Within(editsCalc, x, p, ex.Radius)
		} else {
			target, err := o.operand(ex.Target, alias, r)
			if err != nil {
				return false, err
			}
			d = editsCalc.Distance(x, target)
			ok = d <= ex.Radius
		}
		if ok && !r.has {
			r.dist, r.has = d, true
		}
		return ok, nil
	}
	return false, errUnmodeled
}

// matches evaluates a WHERE clause over every row, in ascending id.
func (o *oracleDB) matches(where Expr, alias string) ([]modelRow, error) {
	if ne, ok := where.(NearestExpr); ok {
		if ne.RuleSet != "edits" && ne.RuleSet != "gaps" || !ne.Target.IsLit || ne.Field.Name == "vec" || ne.Target.IsVec {
			return nil, errUnmodeled
		}
		calc := editsCalc
		if ne.RuleSet == "gaps" {
			calc = gapsCalc
		}
		var all []modelRow
		for _, row := range o.rows {
			// Unreachable rows (+Inf) are never anyone's neighbour.
			if d := calc.Distance(row.seq, ne.Target.Lit); !math.IsInf(d, 1) {
				all = append(all, modelRow{oracleRow: row, dist: d, has: true})
			}
		}
		// Rows are in ascending id, so a stable sort by distance is the
		// (dist, id) order.
		sort.SliceStable(all, func(i, j int) bool { return all[i].dist < all[j].dist })
		if len(all) > ne.K {
			all = all[:ne.K]
		}
		return all, nil
	}
	var out []modelRow
	for _, row := range o.rows {
		r := modelRow{oracleRow: row}
		ok, err := o.eval(where, alias, &r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// query evaluates a SELECT.
func (o *oracleDB) query(q *Query) (*modelResult, error) {
	if len(q.From) != 1 || q.From[0].Name != "words" || len(q.Params) > 0 {
		return nil, errUnmodeled
	}
	alias := q.From[0].Alias
	rows, err := o.matches(q.Where, alias)
	if err != nil {
		return nil, err
	}
	res := &modelResult{}
	if q.Order != OrderNone {
		if !exprHasSim(q.Where) {
			return nil, errUnmodeled // the engine rejects ORDER BY dist here
		}
		// Rows without a distance sort last in either direction; ties
		// keep the input order.
		sort.SliceStable(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if !a.has || !b.has {
				return a.has && !b.has
			}
			if q.Order == OrderDesc {
				return a.dist > b.dist
			}
			return a.dist < b.dist
		})
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	for i := range rows {
		r := &rows[i]
		var out []string
		if len(q.Select) == 0 {
			out = []string{strconv.Itoa(r.id), r.seq, ""}
			if r.has {
				out[2] = formatDist(r.dist)
			}
		}
		for _, c := range q.Select {
			v, err := o.field(FieldRef{Table: c.Table, Name: c.Name}, alias, r)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.rows = append(res.rows, out)
	}
	return res, nil
}

// mutate applies an INSERT, DELETE or UPDATE with the engine's DML
// semantics (see oracleDB).
func (o *oracleDB) mutate(m *Mutation) error {
	if m.Table != "words" || len(m.Params) > 0 {
		return errUnmodeled
	}
	lit := func(v Operand) (string, error) {
		if !v.IsLit {
			return "", errUnmodeled
		}
		return v.Lit, nil
	}
	if m.Kind == MutInsert {
		var add []oracleRow
		for _, vals := range m.Rows {
			if len(vals) != len(m.Columns) {
				return errUnmodeled
			}
			var row oracleRow
			for i, col := range m.Columns {
				v, err := lit(vals[i])
				if err != nil {
					return err
				}
				switch col {
				case "seq":
					row.seq = v
				case "tag":
					row.tag = v
				default:
					return errUnmodeled
				}
			}
			add = append(add, row)
		}
		for _, row := range add {
			o.insert(row.seq, row.tag)
		}
		return nil
	}
	hit, err := o.matches(m.Where, m.Table)
	if err != nil {
		return err
	}
	ids := make([]int, len(hit))
	for i, r := range hit {
		ids[i] = r.id
	}
	if m.Kind == MutDelete {
		o.deleteIDs(ids)
		return nil
	}
	var seq, tag *string
	for _, sc := range m.Set {
		v, err := lit(sc.Value)
		if err != nil {
			return err
		}
		switch sc.Name {
		case "seq":
			seq = &v
		case "tag":
			tag = &v
		default:
			return errUnmodeled
		}
	}
	o.updateRows(ids, func(r *oracleRow) {
		if seq != nil {
			r.seq = *seq
		}
		if tag != nil {
			r.tag = *tag
		}
	})
	return nil
}

// dumpWords renders an engine's "words" table: id, seq and tag per
// visible row, in id order.
func dumpWords(e *Engine) string {
	tab, _ := e.Catalog().Lookup("words")
	var b strings.Builder
	for _, tup := range tab.Tuples() {
		b.WriteString(strconv.Itoa(tup.ID) + "\x1f" + tup.Seq + "\x1f" + tup.Attr("tag") + "\n")
	}
	return b.String()
}

// dump renders the model's table in dumpWords' format.
func (o *oracleDB) dump() string {
	var b strings.Builder
	for _, row := range o.rows {
		b.WriteString(strconv.Itoa(row.id) + "\x1f" + row.seq + "\x1f" + row.tag + "\n")
	}
	return b.String()
}

// check holds an engine result against the model positionally.
func (mr *modelResult) check(t testing.TB, stmt string, res *Result) {
	t.Helper()
	want := make([]string, len(mr.rows))
	for i, r := range mr.rows {
		want[i] = strings.Join(r, "\x1f")
	}
	if got := positional(res); got != strings.Join(want, "\n") {
		t.Fatalf("%q diverges from the model:\ngot:\n%s\nwant:\n%s\nplan:\n%s", stmt, got, strings.Join(want, "\n"), res.Plan())
	}
}

// checkModel parses stmt, evaluates it on the model and compares. The
// caller's generator promises statements inside the model's language.
func (o *oracleDB) checkModel(t testing.TB, stmt string, res *Result) {
	t.Helper()
	parsed, err := ParseStatement(stmt)
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	if m, ok := parsed.(*Mutation); ok {
		if err := o.mutate(m); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		return
	}
	q := parsed.(*Query)
	mr, err := o.query(q)
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	mr.check(t, stmt, res)
}
