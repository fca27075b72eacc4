package query

import (
	"fmt"
	"strings"

	"repro/internal/metric"
)

// Query is the root of a parsed statement.
type Query struct {
	Explain bool
	Analyze bool // EXPLAIN ANALYZE: execute, then render actuals

	Select     []Column   // empty means '*'
	From       []TableRef // one (range query) or several (N-way join)
	Where      Expr       // may be nil
	Order      OrderDir   // ORDER BY dist direction
	Limit      int        // 0 means unlimited
	LimitParam *ParamRef  // LIMIT ? — set instead of Limit until bound
	Params     []ParamRef // every parameter, in order of appearance
}

// ParamRef is one occurrence of a bind parameter: positional ('?',
// addressed by Idx) or named (':name', addressed by Name with Idx -1).
// A statement may use one style or the other, not both.
type ParamRef struct {
	Name string // named parameter; empty for positional
	Idx  int    // 0-based position for positional; -1 for named
}

// String renders the parameter in the concrete syntax.
func (p ParamRef) String() string {
	if p.Name != "" {
		return ":" + p.Name
	}
	return "?"
}

// OrderDir is the ORDER BY dist direction.
type OrderDir int

// ORDER BY directions.
const (
	OrderNone OrderDir = iota
	OrderAsc
	OrderDesc
)

// Column is a projected column, optionally qualified by a table alias.
type Column struct {
	Table string // alias, may be empty
	Name  string // "id", "seq", "dist" or an attribute
}

// String renders the column.
func (c Column) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// TableRef names a relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string // defaults to Name
}

// Expr is a boolean predicate tree over one row: a tuple per alias in
// FROM.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// AndExpr is conjunction.
type AndExpr struct{ L, R Expr }

// OrExpr is disjunction.
type OrExpr struct{ L, R Expr }

// NotExpr is negation.
type NotExpr struct{ E Expr }

// CmpExpr compares an operand against another with = or !=.
type CmpExpr struct {
	L, R Operand
	Neq  bool
}

// SimExpr is the framework's similarity predicate
// "field SIMILAR TO target WITHIN radius USING ruleset": the field's
// sequence can be transformed into the target (or into a member of the
// target pattern) at cost at most radius.
type SimExpr struct {
	Field       FieldRef
	Target      Operand // string literal, field reference, or pattern
	Pattern     bool    // target is a pattern expression (string literal)
	Radius      float64
	RadiusParam *ParamRef // WITHIN ? — set instead of Radius until bound
	RuleSet     string
}

// NearestExpr selects the K tuples whose sequences are cheapest to
// transform into the target.
type NearestExpr struct {
	Field   FieldRef
	Target  Operand
	K       int
	RuleSet string
}

func (AndExpr) isExpr()     {}
func (OrExpr) isExpr()      {}
func (NotExpr) isExpr()     {}
func (CmpExpr) isExpr()     {}
func (SimExpr) isExpr()     {}
func (NearestExpr) isExpr() {}

// String renders the expression in the concrete syntax.
func (e AndExpr) String() string { return fmt.Sprintf("(%s AND %s)", e.L, e.R) }

// String renders the expression in the concrete syntax.
func (e OrExpr) String() string { return fmt.Sprintf("(%s OR %s)", e.L, e.R) }

// String renders the expression in the concrete syntax.
func (e NotExpr) String() string { return fmt.Sprintf("NOT %s", e.E) }

// String renders the expression in the concrete syntax.
func (e CmpExpr) String() string {
	op := "="
	if e.Neq {
		op = "!="
	}
	return fmt.Sprintf("%s %s %s", e.L, op, e.R)
}

// String renders the expression in the concrete syntax.
func (e SimExpr) String() string {
	pat := ""
	if e.Pattern {
		pat = "PATTERN "
	}
	radius := fmt.Sprintf("%g", e.Radius)
	if e.RadiusParam != nil {
		radius = e.RadiusParam.String()
	}
	return fmt.Sprintf("%s SIMILAR TO %s%s WITHIN %s USING %s", e.Field, pat, e.Target, radius, e.RuleSet)
}

// String renders the expression in the concrete syntax.
func (e NearestExpr) String() string {
	return fmt.Sprintf("%s NEAREST %d TO %s USING %s", e.Field, e.K, e.Target, e.RuleSet)
}

// Operand is a string literal, a vector literal, a field reference, or
// an unbound parameter (which binds to a literal at execution time; a
// string bound against the vec column is parsed as a vector literal).
type Operand struct {
	Lit   string
	Vec   metric.Vector // vector literal ([0.1, -2, ...])
	Field FieldRef
	IsLit bool
	IsVec bool
	Param *ParamRef // set until bound; binding replaces it with a literal
}

// String renders the operand.
func (o Operand) String() string {
	if o.Param != nil {
		return o.Param.String()
	}
	if o.IsVec {
		return metric.Format(o.Vec)
	}
	if o.IsLit {
		return quoteLit(o.Lit)
	}
	return o.Field.String()
}

// quoteLit renders a string literal with exactly the lexer's escape
// rules: a backslash escapes the next byte, so only '"' and '\\' need
// escaping and every other byte is emitted raw. (fmt's %q would escape
// control bytes as \xNN, which the lexer does not interpret — the
// rendering would not round-trip.)
func quoteLit(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// FieldRef names a column, optionally qualified.
type FieldRef struct {
	Table string
	Name  string
}

// String renders the reference.
func (f FieldRef) String() string {
	if f.Table == "" {
		return f.Name
	}
	return f.Table + "." + f.Name
}

// String renders the whole query.
func (q *Query) String() string {
	var b strings.Builder
	if q.Explain {
		if q.Analyze {
			b.WriteString("EXPLAIN ANALYZE ")
		} else {
			b.WriteString("EXPLAIN ")
		}
	}
	b.WriteString("SELECT ")
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		for i, c := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteString(" FROM ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Name)
		if t.Alias != t.Name {
			b.WriteString(" " + t.Alias)
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	switch q.Order {
	case OrderAsc:
		b.WriteString(" ORDER BY dist")
	case OrderDesc:
		b.WriteString(" ORDER BY dist DESC")
	}
	if q.LimitParam != nil {
		b.WriteString(" LIMIT " + q.LimitParam.String())
	} else if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}
