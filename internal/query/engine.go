package query

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/patdist"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/transform"
)

// Engine binds a catalog of relations to a registry of rule sets and
// executes queries. Safe for concurrent query execution.
type Engine struct {
	catalog *relation.Catalog

	mu        sync.RWMutex
	rules     map[string]*ruleEntry       // registered rule sets by name
	patterns  map[string]*pattern.Pattern // compiled pattern cache
	rsVersion uint64                      // bumped per RegisterRuleSet; part of decision keys
	store     *storage.Store              // durable write path; nil = direct catalog mutation

	// Fixed at construction by the options.
	plans           *planCache // statement text -> PreparedQuery; nil disables
	parallelism     int        // gather workers, and slices of a parallel plan (1 disables)
	parallelMinRows int        // outer-relation size that justifies sharding
	batchSize       int        // rows per block

	// tracing forces span collection on every execution (the slow-query
	// log's hook); EXPLAIN ANALYZE traces its own statement regardless.
	tracing atomic.Bool
}

// ruleEntry is one registered rule set with what the engine derives from
// it once, at registration.
type ruleEntry struct {
	rs      *rewrite.RuleSet
	calc    *editdp.Calculator // edit-like rule sets only
	general *transform.Engine  // everything decidable
	unit    bool               // unitCost(rs): licenses the band walk
}

// parallelDefaultMinRows is the default outer-relation size below which
// sharding overhead outweighs the parallel speedup.
const parallelDefaultMinRows = 4096

// defaultBatchSize is the default block size: large enough
// to amortize per-block costs across the pipeline, small enough that a
// block of tuple references stays cache-resident (see EXPERIMENTS.md
// for the 1/64/256/1024 sweep).
const defaultBatchSize = 256

// Option configures an Engine at construction time; everything but
// tracing (SetTracing, which the serving layer flips on live engines)
// is fixed from then on.
type Option func(*Engine)

// WithBatchSize sets the block size every operator works in. 1 is the
// degenerate row-at-a-time case the parity oracles compare the default
// against; n < 1 clamps to 1, like WithParallelism. The size cannot
// change after construction.
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.batchSize = n
	}
}

// WithParallelism sets the worker count for parallel scan/join plans;
// n = 1 forces serial execution. Zero and negative values clamp to 1,
// so no plan ever computes with a nonsensical worker count.
func WithParallelism(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.parallelism = n
	}
}

// WithParallelMinRows sets the outer-relation size from which the
// planner shards scans and joins across workers.
func WithParallelMinRows(n int) Option { return func(e *Engine) { e.parallelMinRows = n } }

// WithPlanCacheSize sets the statement-cache capacity (plancache.go);
// n <= 0 disables it, so every Prepare and Execute parses afresh.
func WithPlanCacheSize(n int) Option {
	return func(e *Engine) {
		e.plans = nil
		if n > 0 {
			e.plans = newPlanCache(n)
		}
	}
}

// WithTracing sets the initial state of engine-wide span collection
// (see SetTracing).
func WithTracing(on bool) Option { return func(e *Engine) { e.SetTracing(on) } }

// NewEngine returns an engine over the catalog with no rule sets
// registered, configured by the given options (defaults: blocks of
// 256 rows, GOMAXPROCS workers, a 512-entry plan cache, tracing off).
func NewEngine(cat *relation.Catalog, opts ...Option) *Engine {
	e := &Engine{
		catalog:         cat,
		rules:           make(map[string]*ruleEntry),
		patterns:        make(map[string]*pattern.Pattern),
		plans:           newPlanCache(defaultPlanCacheSize),
		parallelism:     runtime.GOMAXPROCS(0),
		parallelMinRows: parallelDefaultMinRows,
		batchSize:       defaultBatchSize,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// BatchSize returns the block size the engine was constructed with.
func (e *Engine) BatchSize() int { return e.batchSize }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *relation.Catalog { return e.catalog }

// RegisterRuleSet makes a rule set available to USING clauses under its
// own name, replacing any set registered under it. Edit-like sets get a
// DP calculator; all sets within the decidable regime get a general
// search engine.
func (e *Engine) RegisterRuleSet(rs *rewrite.RuleSet) error {
	ent := &ruleEntry{rs: rs, unit: unitCost(rs)}
	if rs.EditLike() {
		c, err := editdp.New(rs)
		if err != nil {
			return err
		}
		ent.calc = c
	}
	if g, err := transform.NewEngine(rs); err == nil {
		ent.general = g
	} else if ent.calc == nil {
		// Zero-cost growth is usable only through the DP path.
		return fmt.Errorf("query: rule set %q unusable: %w", rs.Name(), err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rsVersion++ // invalidates memoised decisions whose costing saw the old registry
	e.rules[rs.Name()] = ent
	return nil
}

// RuleSets returns the registered rule set names, sorted.
func (e *Engine) RuleSets() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.rules))
	for n := range e.rules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rule returns the registry entry of the named rule set.
func (e *Engine) rule(name string) (*ruleEntry, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ent, ok := e.rules[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown rule set %q", name)
	}
	return ent, nil
}

func (e *Engine) ruleset(name string) (*rewrite.RuleSet, error) {
	ent, err := e.rule(name)
	if err != nil {
		return nil, err
	}
	return ent.rs, nil
}

func (e *Engine) calc(name string) *editdp.Calculator {
	if ent, _ := e.rule(name); ent != nil {
		return ent.calc
	}
	return nil
}

func (e *Engine) general(name string) *transform.Engine {
	if ent, _ := e.rule(name); ent != nil {
		return ent.general
	}
	return nil
}

func (e *Engine) compilePattern(src string) (*pattern.Pattern, error) {
	e.mu.RLock()
	p, ok := e.patterns[src]
	e.mu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := pattern.Compile(src)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.patterns[src] = p
	e.mu.Unlock()
	return p, nil
}

// unitCost reports whether the rule set induces the plain unit edit
// distance, which licenses the metric indexes.
func unitCost(rs *rewrite.RuleSet) bool {
	if !rs.EditLike() || !rs.Symmetric() {
		return false
	}
	for _, r := range rs.Rules() {
		if r.Cost != 1 {
			return false
		}
	}
	return true
}

// Result is the outcome of a query.
type Result struct {
	Columns []string
	// Rows holds every row when the statement ran through Execute; an
	// execution into a RowSink (ExecuteTo) leaves it nil.
	Rows  [][]string
	Plan  string    // rendered operator tree; the whole payload for EXPLAIN
	Stats ExecStats // work counters from the access paths
	// Trace is the per-operator runtime span tree; non-nil only when the
	// execution was traced (EXPLAIN ANALYZE, or SetTracing(true)).
	Trace *obs.Span
}

// SetTracing toggles span collection for every subsequent execution.
// Traced plans pay a per-operator timing wrapper (see trace.go); the
// serving layer enables this only when a slow-query log is configured.
func (e *Engine) SetTracing(on bool) { e.tracing.Store(on) }

// Tracing reports whether engine-wide span collection is on.
func (e *Engine) Tracing() bool { return e.tracing.Load() }

// rulesetVersion returns the rule-set registry mutation counter.
func (e *Engine) rulesetVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rsVersion
}

// CacheStats snapshots the statement cache's hit/miss counters; all
// zero when caching is disabled.
func (e *Engine) CacheStats() CacheStats {
	if e.plans != nil {
		return e.plans.Stats()
	}
	return CacheStats{}
}

// normalizeQueryText canonicalises statement text into the statement
// cache's key: runs of whitespace outside string literals collapse to
// one space. Literal contents are preserved byte-for-byte (including
// escapes), so two statements that differ only inside a quoted string
// never share a key. Case is preserved — rule-set names and literals
// are case-sensitive.
func normalizeQueryText(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inStr {
			b.WriteByte(c)
			switch {
			case c == '\\' && i+1 < len(src):
				i++
				b.WriteByte(src[i])
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pendingSpace = b.Len() > 0
		default:
			if pendingSpace {
				b.WriteByte(' ')
				pendingSpace = false
			}
			if c == '"' {
				inStr = true
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Execute runs one statement — SELECT or DML — without arguments: it is
// Prepare(src) followed by the statement's Execute, so a repeated text
// skips the lexer and the parser, and reuses its planner decision while
// the engine's statistics and registries stand. Parameterized
// statements cannot run here — bind them through Prepare.
func (e *Engine) Execute(src string) (*Result, error) {
	pq, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	if len(pq.params) > 0 {
		return nil, errors.New("query: statement has bind parameters; use Engine.Prepare")
	}
	return pq.Execute()
}

// finishPlan drives a built plan to completion into sink, or renders it
// for EXPLAIN. EXPLAIN ANALYZE takes the execution path: the statement
// runs to completion with tracing on, the rows are exactly the plain
// statement's (the analyze oracle pins that), and Plan carries the span
// tree rendered with actuals instead of the static tree.
func (e *Engine) finishPlan(q *Query, plan *compiledPlan, sink RowSink) (*Result, error) {
	if q.Explain && !q.Analyze {
		return explainResult(plan.describe(), sink)
	}
	mQueriesTotal.Inc()
	kernelDispatch(plan.kernel)
	start := time.Now()
	res, err := plan.run(sink)
	mQueryLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	if plan.ctx.traced {
		res.Trace = plan.extractTrace()
		if q.Analyze && res.Trace != nil {
			res.Plan = res.Trace.Render()
		}
	}
	return res, nil
}

// explainResult sends an EXPLAIN's one-row, one-column result — the
// rendered tree — through sink.
func explainResult(tree string, sink RowSink) (*Result, error) {
	return singleRow(&Result{Columns: []string{"plan"}, Plan: tree}, tree, sink)
}

// singleRow sends the one-cell row of a one-column result through sink.
func singleRow(res *Result, cell string, sink RowSink) (*Result, error) {
	if err := sink(res.Columns, [][]string{{cell}}); err != nil {
		return nil, err
	}
	return res, nil
}

// binding maps table aliases to the tuples of one candidate row, plus
// the row's distance (if any).
//
// Single-relation rows — which mostly travel as columns and borrow a
// scratch binding only where a predicate or projection needs one — use
// the inline alias/tuple pair and allocate nothing; access paths verify
// millions of candidates per second, and one map allocation per
// candidate was the engine's single largest source of GC pressure.
// Joins promote to the aliases slice: a join binds two to four aliases,
// where a linear search beats hashing, and an emitted pair allocates
// only its binding and one pre-sized slice.
type binding struct {
	alias   string         // inline fast path (aliases == nil)
	tuple   relation.Tuple // tuple bound to alias
	aliases []aliasTuple   // multi-alias bindings (joins), one entry per alias
	dist    float64
	hasDist bool
}

// aliasTuple is one alias of a multi-alias binding and its tuple.
type aliasTuple struct {
	alias string
	tuple relation.Tuple
}

// newBinding returns a single-alias binding.
func newBinding(alias string, t relation.Tuple) *binding {
	return &binding{alias: alias, tuple: t}
}

// width returns the number of aliases b binds.
func (b *binding) width() int {
	if b.aliases == nil {
		return 1
	}
	return len(b.aliases)
}

// slot returns the multi-alias entry's tuple for alias, or nil.
func (b *binding) slot(alias string) *relation.Tuple {
	for i := range b.aliases {
		if b.aliases[i].alias == alias {
			return &b.aliases[i].tuple
		}
	}
	return nil
}

// bindAll binds every alias of src into b's multi-alias slice.
func (b *binding) bindAll(src *binding) {
	if src.aliases == nil {
		b.bind(src.alias, src.tuple)
		return
	}
	for _, at := range src.aliases {
		b.bind(at.alias, at.tuple)
	}
}

// bind binds alias to t, replacing the tuple of an alias b already
// binds.
func (b *binding) bind(alias string, t relation.Tuple) {
	if s := b.slot(alias); s != nil {
		*s = t
		return
	}
	b.aliases = append(b.aliases, aliasTuple{alias: alias, tuple: t})
}

// tupleFor resolves an alias against either representation.
func (b *binding) tupleFor(alias string) (relation.Tuple, bool) {
	if b.aliases == nil {
		if alias == b.alias {
			return b.tuple, true
		}
		return relation.Tuple{}, false
	}
	if s := b.slot(alias); s != nil {
		return *s, true
	}
	return relation.Tuple{}, false
}

// soleTuple returns the binding's tuple when exactly one alias is
// bound.
func (b *binding) soleTuple() (relation.Tuple, bool) {
	if b.aliases == nil {
		return b.tuple, true
	}
	if len(b.aliases) == 1 {
		return b.aliases[0].tuple, true
	}
	return relation.Tuple{}, false
}

// evalExpr evaluates a predicate tree against one binding.
func (e *Engine) evalExpr(ex Expr, b *binding) (bool, error) {
	switch ex := ex.(type) {
	case litTrue:
		return true, nil
	case AndExpr:
		l, err := e.evalExpr(ex.L, b)
		if err != nil {
			return false, err
		}
		if !l {
			// Short-circuit: a false conjunct decides the AND; errors in
			// the unevaluated right side are intentionally not surfaced.
			return false, nil
		}
		return e.evalExpr(ex.R, b)
	case OrExpr:
		l, err := e.evalExpr(ex.L, b)
		if err != nil {
			return false, err
		}
		if l {
			// Short-circuit: a true disjunct decides the OR.
			return true, nil
		}
		return e.evalExpr(ex.R, b)
	case NotExpr:
		v, err := e.evalExpr(ex.E, b)
		if err != nil {
			return false, err
		}
		return !v, nil
	case CmpExpr:
		if isIDField(ex.L) && isIDField(ex.R) {
			// Ids compare as integers: the same verdict as their decimal
			// strings, without formatting both per row (a join residual
			// a.id != b.id runs once per joined pair).
			l, err := fieldTuple(ex.L.Field, b)
			if err != nil {
				return false, err
			}
			r, err := fieldTuple(ex.R.Field, b)
			if err != nil {
				return false, err
			}
			return (l.ID == r.ID) != ex.Neq, nil
		}
		l, err := operandValue(ex.L, b)
		if err != nil {
			return false, err
		}
		r, err := operandValue(ex.R, b)
		if err != nil {
			return false, err
		}
		if ex.Neq {
			return l != r, nil
		}
		return l == r, nil
	case SimExpr:
		if ex.Pattern {
			x, err := fieldValue(ex.Field, b)
			if err != nil {
				return false, err
			}
			d, ok, err := e.patternWithin(x, ex.Target.Lit, ex.RuleSet, ex.Radius)
			if err != nil {
				return false, err
			}
			if ok && !b.hasDist {
				b.dist, b.hasDist = d, true
			}
			return ok, nil
		}
		d, ok, err := e.evalSim(&ex, b)
		if err != nil {
			return false, err
		}
		if ok && !b.hasDist {
			b.dist, b.hasDist = d, true
		}
		return ok, nil
	case NearestExpr:
		return false, fmt.Errorf("query: NEAREST must be the entire WHERE clause")
	default:
		return false, fmt.Errorf("query: unknown expression %T", ex)
	}
}

// isVecSim reports whether a similarity conjunct is a vector predicate:
// the field is the vec column, or the target is a vector literal. The
// USING clause of a vector predicate names a distance metric (l2,
// cosine) instead of a rule set.
func isVecSim(ex *SimExpr) bool {
	return ex.Field.Name == "vec" || ex.Target.IsVec
}

// evalSim computes one non-pattern similarity conjunct on a binding,
// returning the distance without mutating the binding (callers decide
// how distances merge — evalExpr keeps the first, joins keep the
// outer's). Vector predicates resolve through metric.Within with the
// target vector first, the operand order the VP-tree and batch kernels
// use, so every path agrees bitwise; rows without a vector never match
// (their distance is undefined, not zero). String predicates resolve
// through Engine.within. A field target (a distance join's inner side)
// is resolved against the same binding, for both domains.
func (e *Engine) evalSim(ex *SimExpr, b *binding) (float64, bool, error) {
	if isVecSim(ex) {
		t, err := fieldTuple(ex.Field, b)
		if err != nil {
			return 0, false, err
		}
		m, ok := metric.Lookup(ex.RuleSet)
		if !ok {
			return 0, false, fmt.Errorf("query: unknown metric %q", ex.RuleSet)
		}
		target := ex.Target.Vec
		if !ex.Target.IsVec {
			if ex.Target.IsLit || ex.Target.Field.Name != "vec" {
				return 0, false, fmt.Errorf("query: vec similarity requires a vector literal or a vec field target")
			}
			tt, err := fieldTuple(ex.Target.Field, b)
			if err != nil {
				return 0, false, err
			}
			target = tt.Vec
		}
		if t.Vec == nil || target == nil {
			return 0, false, nil
		}
		d, within := metric.Within(m, target, t.Vec, ex.Radius)
		return d, within, nil
	}
	x, err := fieldValue(ex.Field, b)
	if err != nil {
		return 0, false, err
	}
	target, err := operandValue(ex.Target, b)
	if err != nil {
		return 0, false, err
	}
	return e.within(x, target, ex.RuleSet, ex.Radius)
}

// fieldTuple resolves the tuple a field reference binds to: the named
// alias's, or the only one bound.
func fieldTuple(f FieldRef, b *binding) (relation.Tuple, error) {
	if f.Table != "" {
		t, ok := b.tupleFor(f.Table)
		if !ok {
			return relation.Tuple{}, fmt.Errorf("query: unknown alias %q", f.Table)
		}
		return t, nil
	}
	if t, ok := b.soleTuple(); ok {
		return t, nil
	}
	return relation.Tuple{}, fmt.Errorf("query: ambiguous field %q; qualify with an alias", f.Name)
}

// within tests d(x -> target) <= radius under the named rule set,
// preferring the DP calculator and falling back to the general engine.
func (e *Engine) within(x, target, ruleset string, radius float64) (float64, bool, error) {
	if c := e.calc(ruleset); c != nil {
		d, ok := c.Within(x, target, radius)
		return d, ok, nil
	}
	if g := e.general(ruleset); g != nil {
		d, ok, err := g.Distance(x, target, radius)
		return d, ok, err
	}
	_, err := e.ruleset(ruleset)
	if err != nil {
		return 0, false, err
	}
	return 0, false, fmt.Errorf("query: rule set %q has no usable evaluator", ruleset)
}

// patternWithin tests d(x -> L(pattern)) <= radius; edit-like rule sets
// only (the product search requires per-position costs).
func (e *Engine) patternWithin(x, patSrc, ruleset string, radius float64) (float64, bool, error) {
	c := e.calc(ruleset)
	if c == nil {
		if _, err := e.ruleset(ruleset); err != nil {
			return 0, false, err
		}
		return 0, false, fmt.Errorf("query: pattern similarity requires an edit-like rule set (%q is not)", ruleset)
	}
	p, err := e.compilePattern(patSrc)
	if err != nil {
		return 0, false, err
	}
	d, ok := patdist.Within(c, x, p, radius)
	return d, ok, nil
}

// isIDField reports whether an operand reads a row's id.
func isIDField(o Operand) bool { return !o.IsLit && o.Field.Name == "id" }

func operandValue(o Operand, b *binding) (string, error) {
	if o.IsLit {
		return o.Lit, nil
	}
	return fieldValue(o.Field, b)
}

// errNoDist is reading dist on a row no similarity predicate has given
// a distance yet.
var errNoDist = errors.New("query: dist is not available here")

func fieldValue(f FieldRef, b *binding) (string, error) {
	if f.Name == "dist" {
		if !b.hasDist {
			return "", errNoDist
		}
		return formatDist(b.dist), nil
	}
	t, err := fieldTuple(f, b)
	if err != nil {
		return "", err
	}
	return t.Attr(f.Name), nil
}

// formatDist renders a distance: integral values without a fraction,
// the rest in shortest round-trip form. Integral values below 2^53 go
// through strconv's integer formatting (which serves 0-99 from a static
// table) instead of FormatFloat's exact-decimal path; the digits are
// the same, so the output is byte-identical to
// FormatFloat(d, 'f', 0, 64) for every integral d and to
// FormatFloat(d, 'g', -1, 64) for every other.
func formatDist(d float64) string {
	if i, ok := distInt(d); ok {
		return strconv.FormatInt(i, 10)
	}
	return string(appendDist(nil, d))
}

// appendDist appends formatDist(d) to dst.
func appendDist(dst []byte, d float64) []byte {
	if i, ok := distInt(d); ok {
		return strconv.AppendInt(dst, i, 10)
	}
	if d == math.Trunc(d) { // ±Inf, -0 and integers of 2^53 and beyond
		return strconv.AppendFloat(dst, d, 'f', 0, 64)
	}
	return strconv.AppendFloat(dst, d, 'g', -1, 64)
}

// distInt returns d as an int64 when it is an integer of magnitude
// below 2^53 other than -0 (which prints as "-0"): exactly the values
// whose integer digits are FormatFloat's.
func distInt(d float64) (int64, bool) {
	if d != math.Trunc(d) || math.Abs(d) >= 1<<53 || d == 0 && math.Signbit(d) {
		return 0, false
	}
	return int64(d), true
}

// litTrue is the planner's placeholder for a conjunct consumed by the
// access path.
type litTrue struct{}

func (litTrue) isExpr()        {}
func (litTrue) String() string { return "TRUE" }
