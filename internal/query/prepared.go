package query

// Prepared queries: parse once, bind many times. A PreparedQuery keeps
// the parsed template, and every execution binds it, plans the bound
// query afresh and runs the plan: planning reads only the bound query,
// the rule-set and metric registries and O(1) table statistics, so the
// plan — its access path, its kernel, its parallel slices — always follows
// the binding and the data it runs on. Every statement the engine runs
// is one: Engine.Execute prepares its text through the statement cache
// (plancache.go) and runs it without arguments. A PreparedQuery is safe
// for concurrent use: executions share the template read-only and each
// plans and builds its own operator tree, so they share no lock.

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/metric"
)

// PreparedQuery is a reusable compiled statement with bind parameters:
// a SELECT template or a DML template.
type PreparedQuery struct {
	eng    *Engine
	src    string
	tmpl   *Query     // SELECT template; nil for DML
	mut    *Mutation  // DML template; nil for SELECT
	params []ParamRef // every parameter, in order of appearance
}

// Prepare returns the PreparedQuery for a statement — SELECT or DML.
// Rule sets, relation names and pattern syntax are validated eagerly;
// bind values are supplied per execution via Execute/ExecuteNamed.
// Statements are shared per text: texts that normalize alike (see
// normalizeQueryText) get the same PreparedQuery from the statement
// cache until the LRU evicts it. With the cache disabled every call
// parses afresh.
func (e *Engine) Prepare(src string) (*PreparedQuery, error) {
	pq, _, err := e.Statement(src)
	return pq, err
}

// Statement is Prepare that also reports whether the statement cache
// already held the text, i.e. whether this call skipped the lexer and
// the parser.
func (e *Engine) Statement(src string) (pq *PreparedQuery, cached bool, err error) {
	if e.plans == nil {
		pq, err = e.prepare(src)
		return pq, false, err
	}
	key := normalizeQueryText(src)
	if pq, ok := e.plans.get(key); ok {
		return pq, true, nil
	}
	if pq, err = e.prepare(src); err != nil {
		return nil, false, err
	}
	return e.plans.put(key, pq), false, nil
}

// prepare parses and validates a statement into a fresh PreparedQuery.
func (e *Engine) prepare(src string) (*PreparedQuery, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	if m, ok := stmt.(*Mutation); ok {
		if _, ok := e.catalog.Lookup(m.Table); !ok {
			return nil, fmt.Errorf("query: unknown relation %q", m.Table)
		}
		if err := e.validateExpr(m.Where); err != nil {
			return nil, err
		}
		return &PreparedQuery{eng: e, src: src, mut: m, params: m.Params}, nil
	}
	q := stmt.(*Query)
	if _, err := e.resolveFrom(q); err != nil {
		return nil, err
	}
	// validateExpr never looks at radii, so it works on the template.
	if err := e.validateExpr(q.Where); err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, src: src, tmpl: q, params: q.Params}, nil
}

// Text returns the statement the query was first prepared from.
func (pq *PreparedQuery) Text() string { return pq.src }

// NumParams returns the number of parameters the statement takes:
// the count of '?' markers, or the number of distinct names for named
// parameters.
func (pq *PreparedQuery) NumParams() int {
	if names := pq.ParamNames(); names != nil {
		return len(names)
	}
	n := 0
	for _, p := range pq.params {
		if p.Idx >= n {
			n = p.Idx + 1
		}
	}
	return n
}

// ParamNames returns the distinct named parameters in order of first
// appearance, or nil for a positional (or parameterless) statement.
func (pq *PreparedQuery) ParamNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range pq.params {
		if p.Name != "" && !seen[p.Name] {
			seen[p.Name] = true
			names = append(names, p.Name)
		}
	}
	return names
}

// Execute binds positional arguments, runs the statement and collects
// its rows into Result.Rows.
func (pq *PreparedQuery) Execute(args ...any) (*Result, error) {
	var c collector
	return c.result(pq.ExecuteTo(context.Background(), c.add, args...))
}

// ExecuteNamed is Execute with named arguments.
func (pq *PreparedQuery) ExecuteNamed(args map[string]any) (*Result, error) {
	var c collector
	return c.result(pq.ExecuteNamedTo(context.Background(), c.add, args))
}

// ExecuteTo binds positional arguments and runs the statement, handing
// its rows to sink one block at a time as the plan produces them; the
// returned Result carries everything but the rows. A read stops with
// ctx's error at its next cancellation point once ctx is done; DML runs
// to completion, so its outcome always says whether it committed.
func (pq *PreparedQuery) ExecuteTo(ctx context.Context, sink RowSink, args ...any) (*Result, error) {
	return pq.run(ctx, pq.positionalLookup(args), false, sink)
}

// ExecuteNamedTo is ExecuteTo with named arguments.
func (pq *PreparedQuery) ExecuteNamedTo(ctx context.Context, sink RowSink, args map[string]any) (*Result, error) {
	return pq.run(ctx, pq.namedLookup(args), false, sink)
}

// Explain binds positional arguments and returns the plan the engine
// would execute, without running it.
func (pq *PreparedQuery) Explain(args ...any) (string, error) {
	res, err := pq.run(context.Background(), pq.positionalLookup(args), true, discardRows)
	if err != nil {
		return "", err
	}
	return res.Plan(), nil
}

// ExplainNamed is Explain with named arguments.
func (pq *PreparedQuery) ExplainNamed(args map[string]any) (string, error) {
	res, err := pq.run(context.Background(), pq.namedLookup(args), true, discardRows)
	if err != nil {
		return "", err
	}
	return res.Plan(), nil
}

// Analyzed reports whether the statement is an EXPLAIN ANALYZE, whose
// Result.Plan() is the executed span tree rather than the static plan.
func (pq *PreparedQuery) Analyzed() bool { return pq.tmpl != nil && pq.tmpl.Analyze }

func (pq *PreparedQuery) positionalLookup(args []any) func(ParamRef) (any, error) {
	return func(p ParamRef) (any, error) {
		if p.Name != "" {
			return nil, fmt.Errorf("query: statement uses named parameters; call ExecuteNamed")
		}
		if p.Idx < 0 || p.Idx >= len(args) {
			return nil, fmt.Errorf("query: missing argument for parameter %d (got %d args)", p.Idx+1, len(args))
		}
		return args[p.Idx], nil
	}
}

func (pq *PreparedQuery) namedLookup(args map[string]any) func(ParamRef) (any, error) {
	return func(p ParamRef) (any, error) {
		if p.Name == "" {
			return nil, fmt.Errorf("query: statement uses positional parameters; call Execute")
		}
		v, ok := args[p.Name]
		if !ok {
			return nil, fmt.Errorf("query: missing argument for parameter :%s", p.Name)
		}
		return v, nil
	}
}

// run binds, plans and executes. Once a plan builds, its execution
// outcome — runtime errors included — is final, so an erroring
// statement is never executed twice. The execution lexed and parsed
// nothing, so its PlanCacheHit is true; Engine.Execute reports its own
// statement-cache lookup instead.
func (pq *PreparedQuery) run(ctx context.Context, lookup func(ParamRef) (any, error), explain bool, sink RowSink) (*Result, error) {
	if pq.mut != nil {
		return pq.runMutation(lookup, explain, sink)
	}
	q, err := bindQuery(pq.tmpl, lookup)
	if err != nil {
		return nil, err
	}
	if explain && !q.Explain {
		c := *q
		c.Explain = true
		q = &c
	}
	plan, err := pq.eng.planQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := pq.eng.finishPlan(ctx, q, plan, sink)
	if err != nil {
		return nil, err
	}
	res.Stats.PlanCacheHit = true
	return res, nil
}

// runMutation binds a DML template and executes it; the read phase of
// DELETE/UPDATE is planned like a SELECT, against the statistics
// current at execution.
func (pq *PreparedQuery) runMutation(lookup func(ParamRef) (any, error), explain bool, sink RowSink) (*Result, error) {
	m, err := bindMutation(pq.mut, lookup)
	if err != nil {
		return nil, err
	}
	m.Explain = m.Explain || explain
	res, err := pq.eng.execMutation(m, sink)
	if err != nil {
		return nil, err
	}
	res.Stats.PlanCacheHit = true
	return res, nil
}

// ------------------------------------------------------------- binding

// bindQuery substitutes every parameter of the template, returning a
// fresh, fully-bound Query, or the template itself when it has no
// parameters: the build never mutates a query, so concurrent executions
// share it. The template is never mutated.
func bindQuery(tmpl *Query, lookup func(ParamRef) (any, error)) (*Query, error) {
	if len(tmpl.Params) == 0 {
		return tmpl, nil
	}
	q := *tmpl
	q.Params = nil
	if tmpl.Where != nil {
		w, err := bindExpr(tmpl.Where, lookup)
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if tmpl.LimitParam != nil {
		v, err := lookup(*tmpl.LimitParam)
		if err != nil {
			return nil, err
		}
		n, err := paramInt(v)
		if err != nil || n < 1 {
			// 0 is rejected like a literal LIMIT 0: the planner reads
			// Limit == 0 as "no limit".
			return nil, fmt.Errorf("query: bad LIMIT argument %v", v)
		}
		q.Limit, q.LimitParam = n, nil
	}
	return &q, nil
}

// bindExpr rebuilds the predicate tree with parameters substituted.
func bindExpr(ex Expr, lookup func(ParamRef) (any, error)) (Expr, error) {
	switch ex := ex.(type) {
	case AndExpr:
		l, err := bindExpr(ex.L, lookup)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(ex.R, lookup)
		if err != nil {
			return nil, err
		}
		return AndExpr{L: l, R: r}, nil
	case OrExpr:
		l, err := bindExpr(ex.L, lookup)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(ex.R, lookup)
		if err != nil {
			return nil, err
		}
		return OrExpr{L: l, R: r}, nil
	case NotExpr:
		e, err := bindExpr(ex.E, lookup)
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	case CmpExpr:
		l, err := bindOperand(ex.L, lookup)
		if err != nil {
			return nil, err
		}
		r, err := bindOperand(ex.R, lookup)
		if err != nil {
			return nil, err
		}
		return CmpExpr{L: l, R: r, Neq: ex.Neq}, nil
	case SimExpr:
		out := ex
		t, err := bindOperand(ex.Target, lookup)
		if err != nil {
			return nil, err
		}
		if t, err = coerceVecTarget(ex.Field, t); err != nil {
			return nil, err
		}
		out.Target = t
		if ex.RadiusParam != nil {
			v, err := lookup(*ex.RadiusParam)
			if err != nil {
				return nil, err
			}
			r, err := paramFloat(v)
			if err != nil || r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return nil, fmt.Errorf("query: bad WITHIN argument %v", v)
			}
			out.Radius, out.RadiusParam = r, nil
		}
		return out, nil
	case NearestExpr:
		out := ex
		t, err := bindOperand(ex.Target, lookup)
		if err != nil {
			return nil, err
		}
		if t, err = coerceVecTarget(ex.Field, t); err != nil {
			return nil, err
		}
		out.Target = t
		return out, nil
	}
	return ex, nil
}

// coerceVecTarget re-parses a string bound against the vec column as a
// vector literal — clients pass vectors through bind parameters in
// their canonical text form ("[0.1, -2]", see metric.Format), which
// round-trips each float32 component bit-exactly.
func coerceVecTarget(f FieldRef, o Operand) (Operand, error) {
	if f.Name != "vec" || !o.IsLit {
		return o, nil
	}
	v, err := metric.Parse(o.Lit)
	if err != nil {
		return Operand{}, fmt.Errorf("query: bad vector argument: %w", err)
	}
	return Operand{Vec: v, IsVec: true}, nil
}

// bindMutation substitutes every parameter of a DML template, returning
// a fresh, fully-bound Mutation. The template is never mutated.
func bindMutation(tmpl *Mutation, lookup func(ParamRef) (any, error)) (*Mutation, error) {
	m := *tmpl
	m.Params = nil
	if tmpl.Where != nil {
		w, err := bindExpr(tmpl.Where, lookup)
		if err != nil {
			return nil, err
		}
		m.Where = w
	}
	if len(tmpl.Rows) > 0 {
		m.Rows = make([][]Operand, len(tmpl.Rows))
		for i, row := range tmpl.Rows {
			m.Rows[i] = make([]Operand, len(row))
			for j, v := range row {
				b, err := bindOperand(v, lookup)
				if err != nil {
					return nil, err
				}
				m.Rows[i][j] = b
			}
		}
	}
	if len(tmpl.Set) > 0 {
		m.Set = make([]SetClause, len(tmpl.Set))
		for i, sc := range tmpl.Set {
			b, err := bindOperand(sc.Value, lookup)
			if err != nil {
				return nil, err
			}
			m.Set[i] = SetClause{Name: sc.Name, Value: b}
		}
	}
	return &m, nil
}

func bindOperand(o Operand, lookup func(ParamRef) (any, error)) (Operand, error) {
	if o.Param == nil {
		return o, nil
	}
	v, err := lookup(*o.Param)
	if err != nil {
		return Operand{}, err
	}
	s, err := paramString(v)
	if err != nil {
		return Operand{}, fmt.Errorf("query: parameter %s: %w", o.Param, err)
	}
	return Operand{Lit: s, IsLit: true}, nil
}

// ------------------------------------------------------- value coercion

// paramString coerces an argument to a sequence value. Numbers are
// accepted (JSON clients send them) and formatted the way dist values
// render.
func paramString(v any) (string, error) {
	switch v := v.(type) {
	case string:
		return v, nil
	case []byte:
		return string(v), nil
	case float64:
		return formatDist(v), nil
	case float32:
		return formatDist(float64(v)), nil
	case int:
		return strconv.Itoa(v), nil
	case int64:
		return strconv.FormatInt(v, 10), nil
	default:
		return "", fmt.Errorf("cannot bind %T as a string", v)
	}
}

// paramFloat coerces an argument to a radius.
func paramFloat(v any) (float64, error) {
	switch v := v.(type) {
	case float64:
		return v, nil
	case float32:
		return float64(v), nil
	case int:
		return float64(v), nil
	case int64:
		return float64(v), nil
	case string:
		return strconv.ParseFloat(v, 64)
	default:
		return 0, fmt.Errorf("cannot bind %T as a number", v)
	}
}

// paramInt coerces an argument to a count (LIMIT). Floats are accepted
// when integral — JSON has no integer type.
func paramInt(v any) (int, error) {
	switch v := v.(type) {
	case int:
		return v, nil
	case int64:
		return int(v), nil
	case float64:
		if v != math.Trunc(v) {
			return 0, fmt.Errorf("cannot bind non-integral %v as a count", v)
		}
		return int(v), nil
	case string:
		return strconv.Atoi(v)
	default:
		return 0, fmt.Errorf("cannot bind %T as a count", v)
	}
}
