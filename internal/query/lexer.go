// Package query implements the query language L of the PODS'95
// similarity-query framework: relational calculus over sequence
// relations extended with similarity predicates.
//
// The concrete syntax is SQL-flavoured:
//
//	SELECT * FROM words WHERE seq SIMILAR TO "colour" WITHIN 2 USING edits
//	SELECT * FROM words WHERE seq SIMILAR TO PATTERN "a(b|c)*d" WITHIN 1 USING edits
//	SELECT * FROM stocks a, stocks b WHERE a.seq SIMILAR TO b.seq WITHIN 3 USING edits
//	SELECT * FROM stocks a, stocks b ON dist(a.seq, b.seq) <= 3 USING edits
//	SELECT * FROM docs a, docs b ON dist(a.vec, b.vec) <= 0.5 USING l2
//	SELECT * FROM words WHERE seq NEAREST 5 TO "color" USING edits
//	SELECT * FROM s a, s b, s c WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits
//	       AND b.seq SIMILAR TO c.seq WITHIN 1 USING edits ORDER BY dist LIMIT 10
//	SELECT * FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits LIMIT ?
//	SELECT * FROM words WHERE seq SIMILAR TO :target WITHIN :radius USING edits
//	EXPLAIN SELECT ...
//
// The language also has DML, threaded through the same lexer, parser,
// planner and executor (see ast_dml.go, engine_dml.go):
//
//	INSERT INTO words VALUES ("colour")
//	INSERT INTO words (seq, lang) VALUES (?, ?), ("color", "en")
//	DELETE FROM words WHERE seq SIMILAR TO "tmp" WITHIN 1 USING edits
//	UPDATE words SET lang = "en" WHERE id = "3"
//	EXPLAIN DELETE FROM ...
//
// '?' and ':name' are bind parameters: such statements cannot be run
// directly but are compiled once with Engine.Prepare and executed many
// times with different bound values (see prepared.go).
//
// INSERT, INTO, VALUES, DELETE, UPDATE and SET are reserved words as
// of the DML grammar (alongside SELECT, FROM, WHERE, ...): attributes
// or aliases with those names can no longer be referenced bare in
// statements — the usual cost of growing a SQL grammar.
//
// The package contains the lexer, parser, cost-based planner and a
// Volcano-style executor: queries compile to trees of physical
// operators (Scan, IndexRange, NearestK, Filter, Project, Limit,
// OrderByDist, NestedLoopJoin, IndexJoin, GatherMerge) behind one pull
// iterator interface. The planner picks access paths per the rule-set
// classification: the length-band walk for the unit edit distance,
// filter+verify for weighted edit-like sets, and scan with the general
// search engine otherwise; vector predicates walk the vector view under
// a triangular metric and scan otherwise.
// EXPLAIN renders the chosen operator tree. See DESIGN.md.
package query

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokStar
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokEq
	tokNeq
	tokSemi
	tokLe         // '<=' distance-join comparison
	tokQMark      // '?'  positional parameter
	tokNamedParam // ':name' named parameter (text holds the name)
	tokLBracket   // '[' opens a vector literal
	tokRBracket   // ']' closes a vector literal
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokStar:
		return "'*'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'!='"
	case tokLe:
		return "'<='"
	case tokSemi:
		return "';'"
	case tokQMark:
		return "'?'"
	case tokNamedParam:
		return "named parameter"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex tokenises the query source. Keywords remain tokIdent; the parser
// matches them case-insensitively.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/4)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '.':
			toks = append(toks, token{tokDot, ".", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '[':
			toks = append(toks, token{tokLBracket, "[", i})
			i++
		case c == ']':
			toks = append(toks, token{tokRBracket, "]", i})
			i++
		case c == ';':
			toks = append(toks, token{tokSemi, ";", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEq, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokNeq, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("query: stray '!' at %d", i)
			}
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokLe, "<=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("query: stray '<' at %d (only '<=' is part of the grammar)", i)
			}
		case c == '?':
			toks = append(toks, token{tokQMark, "?", i})
			i++
		case c == ':':
			if i+1 >= len(src) || !isIdentStart(src[i+1]) {
				return nil, fmt.Errorf("query: ':' must introduce a named parameter at %d", i)
			}
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokNamedParam, src[i+1 : j], i})
			i = j
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("query: unterminated string at %d", i)
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && (src[i+1] >= '0' && src[i+1] <= '9' || src[i+1] == '.'):
			// A leading '-' lexes as part of the number (vector literals
			// carry negative components; the grammar has no subtraction, so
			// the sign is unambiguous).
			j := scanNumber(src, i)
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

// scanNumber scans a number starting at i: an optional leading '-',
// digits and '.', then an optional exponent ('e' or 'E' with optional
// sign). The exponent is consumed only when digits follow, so an
// identifier after a number never merges into it. Exponents matter
// because the canonical vector-literal rendering (metric.Format) uses
// Go's shortest float form, which produces "1e-09"-style components —
// the lexer must round-trip what Operand.String emits.
func scanNumber(src string, i int) int {
	j := i
	if src[j] == '-' {
		j++
	}
	for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
		j++
	}
	if j < len(src) && (src[j] == 'e' || src[j] == 'E') {
		k := j + 1
		if k < len(src) && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < len(src) && src[k] >= '0' && src[k] <= '9' {
			for k < len(src) && src[k] >= '0' && src[k] <= '9' {
				k++
			}
			j = k
		}
	}
	return j
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// isIdentPart accepts '-' inside identifiers so rule-set names such as
// "unit-edits" work in USING clauses; the grammar has no arithmetic, so
// the dash is unambiguous.
func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '-'
}
