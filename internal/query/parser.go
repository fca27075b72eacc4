package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metric"
)

// Parse parses one SELECT statement. DML statements are rejected here;
// use ParseStatement (Engine.Execute and Engine.Prepare do).
func Parse(src string) (*Query, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	q, ok := stmt.(*Query)
	if !ok {
		return nil, fmt.Errorf("query: Parse handles SELECT only; use ParseStatement for %q", src)
	}
	return q, nil
}

// ParseStatement parses one statement of any kind: SELECT, INSERT,
// DELETE or UPDATE, each optionally prefixed with EXPLAIN.
func ParseStatement(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &qparser{toks: toks, src: src}
	lead := p.leadKeyword()
	var stmt Statement
	switch lead {
	case "insert", "delete", "update":
		m, err := p.parseMutation()
		if err != nil {
			return nil, err
		}
		m.Params = p.params
		stmt = m
	default:
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		q.Params = p.params
		stmt = q
	}
	if p.cur().kind == tokSemi {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input starting with %s", p.cur().kind)
	}
	if p.named && p.npos > 0 {
		return nil, fmt.Errorf("query: cannot mix positional '?' and named ':name' parameters (in %q)", src)
	}
	return stmt, nil
}

// leadKeyword peeks the statement-dispatching keyword, skipping an
// EXPLAIN or EXPLAIN ANALYZE prefix, without consuming anything.
func (p *qparser) leadKeyword() string {
	i := p.pos
	if i < len(p.toks) && p.toks[i].kind == tokIdent && strings.EqualFold(p.toks[i].text, "explain") {
		i++
		if i < len(p.toks) && p.toks[i].kind == tokIdent && strings.EqualFold(p.toks[i].text, "analyze") {
			i++
		}
	}
	if i < len(p.toks) && p.toks[i].kind == tokIdent {
		return strings.ToLower(p.toks[i].text)
	}
	return ""
}

type qparser struct {
	toks []token
	pos  int
	src  string

	params []ParamRef // parameters in order of appearance
	npos   int        // count of positional '?' parameters
	named  bool       // a ':name' parameter was seen
}

// atParam reports whether the current token starts a bind parameter.
func (p *qparser) atParam() bool {
	k := p.cur().kind
	return k == tokQMark || k == tokNamedParam
}

// takeParam consumes a parameter token and registers the reference.
func (p *qparser) takeParam() *ParamRef {
	t := p.next()
	ref := ParamRef{Idx: -1}
	if t.kind == tokNamedParam {
		ref.Name = t.text
		p.named = true
	} else {
		ref.Idx = p.npos
		p.npos++
	}
	p.params = append(p.params, ref)
	return &ref
}

func (p *qparser) cur() token  { return p.toks[p.pos] }
func (p *qparser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *qparser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("query: %s (at offset %d in %q)", fmt.Sprintf(format, args...), p.cur().pos, p.src)
}

// keyword matches a case-insensitive keyword identifier.
func (p *qparser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *qparser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %q", strings.ToUpper(kw), p.cur().text)
	}
	return nil
}

func (p *qparser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.keyword("explain") {
		q.Explain = true
		if p.keyword("analyze") {
			q.Analyze = true
		}
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	// Projection.
	if p.cur().kind == tokStar {
		p.next()
	} else {
		for {
			col, err := p.parseColumn()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, col)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected relation name, got %s", p.cur().kind)
		}
		name := p.next().text
		ref := TableRef{Name: name, Alias: name}
		if p.cur().kind == tokIdent && !isKeyword(p.cur().text) {
			ref.Alias = p.next().text
		}
		q.From = append(q.From, ref)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	// ON introduces join conditions (typically dist(a.x, b.y) <= k
	// forms); it is sugar for ANDing the condition into WHERE, so the
	// planner sees one predicate space regardless of where the user
	// spelled the join.
	var onExpr Expr
	if p.keyword("on") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		onExpr = e
	}
	if p.keyword("where") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if onExpr != nil {
		if q.Where != nil {
			q.Where = AndExpr{L: onExpr, R: q.Where}
		} else {
			q.Where = onExpr
		}
	}
	if p.keyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokIdent || !strings.EqualFold(t.text, "dist") {
			return nil, p.errf("ORDER BY supports only dist")
		}
		p.next()
		q.Order = OrderAsc
		if p.keyword("desc") {
			q.Order = OrderDesc
		} else {
			p.keyword("asc")
		}
	}
	if p.keyword("limit") {
		if p.atParam() {
			q.LimitParam = p.takeParam()
		} else {
			if p.cur().kind != tokNumber {
				return nil, p.errf("expected limit count")
			}
			n, err := strconv.Atoi(p.next().text)
			if err != nil || n < 1 {
				// 0 is rejected like NEAREST 0: the planner reads
				// Limit == 0 as "no limit".
				return nil, p.errf("bad limit")
			}
			q.Limit = n
		}
	}
	return q, nil
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "or": true,
	"not": true, "similar": true, "to": true, "within": true, "using": true,
	"pattern": true, "nearest": true, "limit": true, "explain": true, "analyze": true,
	"order": true, "by": true, "asc": true, "desc": true, "on": true,
	"insert": true, "into": true, "values": true,
	"delete": true, "update": true, "set": true,
}

func isKeyword(s string) bool { return keywords[strings.ToLower(s)] }

// parseMutation parses one INSERT, DELETE or UPDATE statement.
func (p *qparser) parseMutation() (*Mutation, error) {
	m := &Mutation{}
	if p.keyword("explain") {
		m.Explain = true
		if p.keyword("analyze") {
			// ANALYZE executes the statement; an analyzed DML would commit
			// its writes as a side effect of "explaining" it. Refuse.
			return nil, p.errf("EXPLAIN ANALYZE is not supported for DML statements")
		}
	}
	switch {
	case p.keyword("insert"):
		m.Kind = MutInsert
		if err := p.expectKeyword("into"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected relation name, got %s", p.cur().kind)
		}
		m.Table = p.next().text
		if p.cur().kind == tokLParen {
			p.next()
			for {
				if p.cur().kind != tokIdent {
					return nil, p.errf("expected column name, got %s", p.cur().kind)
				}
				m.Columns = append(m.Columns, p.next().text)
				if p.cur().kind != tokComma {
					break
				}
				p.next()
			}
			if p.cur().kind != tokRParen {
				return nil, p.errf("missing ')' after column list")
			}
			p.next()
			seen := map[string]bool{}
			hasSeq, hasVec := false, false
			for _, c := range m.Columns {
				if seen[c] {
					return nil, p.errf("duplicate column %q", c)
				}
				seen[c] = true
				if c == "seq" {
					hasSeq = true
				}
				if c == "vec" {
					hasVec = true
				}
				if c == "id" || c == "dist" {
					return nil, p.errf("column %q cannot be inserted", c)
				}
			}
			if !hasSeq && !hasVec {
				return nil, p.errf("INSERT column list must include seq or vec")
			}
		} else {
			m.Columns = []string{"seq"}
		}
		if err := p.expectKeyword("values"); err != nil {
			return nil, err
		}
		for {
			row, err := p.parseValueRow(len(m.Columns))
			if err != nil {
				return nil, err
			}
			m.Rows = append(m.Rows, row)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	case p.keyword("delete"):
		m.Kind = MutDelete
		if err := p.expectKeyword("from"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected relation name, got %s", p.cur().kind)
		}
		m.Table = p.next().text
		if p.keyword("where") {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			m.Where = e
		}
	case p.keyword("update"):
		m.Kind = MutUpdate
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected relation name, got %s", p.cur().kind)
		}
		m.Table = p.next().text
		if err := p.expectKeyword("set"); err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected column name, got %s", p.cur().kind)
			}
			name := p.next().text
			if name == "id" || name == "dist" {
				return nil, p.errf("column %q cannot be assigned", name)
			}
			if seen[name] {
				return nil, p.errf("duplicate SET column %q", name)
			}
			seen[name] = true
			if p.cur().kind != tokEq {
				return nil, p.errf("expected '=' after SET column")
			}
			p.next()
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			m.Set = append(m.Set, SetClause{Name: name, Value: v})
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		if p.keyword("where") {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			m.Where = e
		}
	default:
		return nil, p.errf("expected INSERT, DELETE or UPDATE, got %q", p.cur().text)
	}
	return m, nil
}

// parseValueRow parses one parenthesised VALUES tuple of exactly want
// values.
func (p *qparser) parseValueRow(want int) ([]Operand, error) {
	if p.cur().kind != tokLParen {
		return nil, p.errf("expected '(' to open a VALUES row")
	}
	p.next()
	var row []Operand
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if p.cur().kind != tokRParen {
		return nil, p.errf("missing ')' after VALUES row")
	}
	p.next()
	if len(row) != want {
		return nil, p.errf("VALUES row has %d values, want %d", len(row), want)
	}
	return row, nil
}

// parseValue parses one DML value: a string, number or vector literal,
// or a bind parameter. Field references are not values — DML assigns
// constants.
func (p *qparser) parseValue() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tokString, tokNumber:
		p.next()
		return Operand{Lit: t.text, IsLit: true}, nil
	case tokLBracket:
		return p.parseVecLiteral()
	case tokQMark, tokNamedParam:
		return Operand{Param: p.takeParam()}, nil
	default:
		return Operand{}, p.errf("expected a literal or parameter, got %s", t.kind)
	}
}

// parseVecLiteral parses a bracketed vector literal: [n, n, ...]. Every
// component must be a finite number; an empty vector [] is rejected —
// it denotes nothing the metrics can measure.
func (p *qparser) parseVecLiteral() (Operand, error) {
	p.next() // consume '['
	var vec metric.Vector
	for {
		t := p.cur()
		if t.kind != tokNumber {
			return Operand{}, p.errf("expected a number in vector literal, got %s", t.kind)
		}
		f, err := strconv.ParseFloat(p.next().text, 32)
		if err != nil {
			return Operand{}, p.errf("bad vector component %q", t.text)
		}
		vec = append(vec, float32(f))
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.cur().kind != tokRBracket {
		return Operand{}, p.errf("missing ']' after vector literal")
	}
	p.next()
	if !metric.Valid(vec) {
		return Operand{}, p.errf("vector literal must be non-empty with finite components")
	}
	return Operand{Vec: vec, IsVec: true}, nil
}

func (p *qparser) parseColumn() (Column, error) {
	if p.cur().kind != tokIdent {
		return Column{}, p.errf("expected column name, got %s", p.cur().kind)
	}
	first := p.next().text
	if p.cur().kind == tokDot {
		p.next()
		if p.cur().kind != tokIdent {
			return Column{}, p.errf("expected column after '.'")
		}
		return Column{Table: first, Name: p.next().text}, nil
	}
	return Column{Name: first}, nil
}

func (p *qparser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *qparser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *qparser) parseUnary() (Expr, error) {
	if p.keyword("not") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	if p.cur().kind == tokLParen {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokRParen {
			return nil, p.errf("missing ')'")
		}
		p.next()
		return e, nil
	}
	return p.parsePredicate()
}

func (p *qparser) parsePredicate() (Expr, error) {
	// dist(x, y) <= k USING name — the distance-predicate form. It
	// desugars to the same SimExpr as `x SIMILAR TO y WITHIN k USING
	// name`, so the two spellings share planning, caching and execution.
	// "dist" is not reserved: only the immediate '(' selects this form,
	// so `ORDER BY dist` and a bare dist column keep working.
	if t := p.cur(); t.kind == tokIdent && strings.EqualFold(t.text, "dist") && p.toks[p.pos+1].kind == tokLParen {
		return p.parseDistPredicate()
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	switch {
	case p.keyword("similar"):
		if err := p.expectKeyword("to"); err != nil {
			return nil, err
		}
		if left.IsLit {
			return nil, p.errf("SIMILAR TO requires a field on the left")
		}
		sim := SimExpr{Field: left.Field}
		if p.keyword("pattern") {
			sim.Pattern = true
			if p.cur().kind != tokString {
				return nil, p.errf("PATTERN requires a string literal")
			}
			sim.Target = Operand{Lit: p.next().text, IsLit: true}
		} else {
			target, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			sim.Target = target
		}
		if err := p.expectKeyword("within"); err != nil {
			return nil, err
		}
		if p.atParam() {
			sim.RadiusParam = p.takeParam()
		} else {
			if p.cur().kind != tokNumber {
				return nil, p.errf("WITHIN requires a number")
			}
			radius, err := strconv.ParseFloat(p.next().text, 64)
			if err != nil || radius < 0 {
				return nil, p.errf("bad radius")
			}
			sim.Radius = radius
		}
		if err := p.expectKeyword("using"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("USING requires a rule-set name")
		}
		sim.RuleSet = p.next().text
		return sim, nil
	case p.keyword("nearest"):
		if left.IsLit {
			return nil, p.errf("NEAREST requires a field on the left")
		}
		if p.cur().kind != tokNumber {
			return nil, p.errf("NEAREST requires a count")
		}
		k, err := strconv.Atoi(p.next().text)
		if err != nil || k <= 0 {
			return nil, p.errf("bad NEAREST count")
		}
		if err := p.expectKeyword("to"); err != nil {
			return nil, err
		}
		target, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("using"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("USING requires a rule-set name")
		}
		return NearestExpr{Field: left.Field, Target: target, K: k, RuleSet: p.next().text}, nil
	case p.cur().kind == tokEq || p.cur().kind == tokNeq:
		neq := p.next().kind == tokNeq
		right, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return CmpExpr{L: left, R: right, Neq: neq}, nil
	default:
		return nil, p.errf("expected predicate operator, got %q", p.cur().text)
	}
}

// parseDistPredicate parses `dist(x, y) <= k USING name` with the
// leading "dist" identifier still current. x must be a field reference;
// y may be a field (a distance join), a string or vector literal, or a
// bind parameter.
func (p *qparser) parseDistPredicate() (Expr, error) {
	p.next() // "dist"
	p.next() // '('
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if left.IsLit || left.IsVec || left.Param != nil {
		return nil, p.errf("dist() requires a field as its first argument")
	}
	sim := SimExpr{Field: left.Field}
	if p.cur().kind != tokComma {
		return nil, p.errf("expected ',' between dist() arguments")
	}
	p.next()
	target, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	sim.Target = target
	if p.cur().kind != tokRParen {
		return nil, p.errf("missing ')' after dist() arguments")
	}
	p.next()
	if p.cur().kind != tokLe {
		return nil, p.errf("dist() must be compared with '<='")
	}
	p.next()
	if p.atParam() {
		sim.RadiusParam = p.takeParam()
	} else {
		if p.cur().kind != tokNumber {
			return nil, p.errf("dist() <= requires a number")
		}
		radius, err := strconv.ParseFloat(p.next().text, 64)
		if err != nil || radius < 0 {
			return nil, p.errf("bad radius")
		}
		sim.Radius = radius
	}
	if err := p.expectKeyword("using"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, p.errf("USING requires a rule-set or metric name")
	}
	sim.RuleSet = p.next().text
	return sim, nil
}

func (p *qparser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tokQMark, tokNamedParam:
		return Operand{Param: p.takeParam()}, nil
	case tokString:
		p.next()
		return Operand{Lit: t.text, IsLit: true}, nil
	case tokLBracket:
		return p.parseVecLiteral()
	case tokIdent:
		if isKeyword(t.text) {
			return Operand{}, p.errf("unexpected keyword %q", t.text)
		}
		p.next()
		if p.cur().kind == tokDot {
			p.next()
			if p.cur().kind != tokIdent {
				return Operand{}, p.errf("expected field after '.'")
			}
			return Operand{Field: FieldRef{Table: t.text, Name: p.next().text}}, nil
		}
		return Operand{Field: FieldRef{Name: t.text}}, nil
	default:
		return Operand{}, p.errf("expected operand, got %s", t.kind)
	}
}
