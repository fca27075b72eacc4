package query

import (
	"context"
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
	"repro/internal/obs"
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

	mu       sync.RWMutex
	rules    map[string]*ruleEntry       // registered rule sets by name
	patterns map[string]*pattern.Pattern // compiled pattern cache
	store    *storage.Store              // durable write path; nil = direct catalog mutation

	// Fixed at construction by the options.
	plans           *planCache // statement text -> PreparedQuery; nil disables
	parallelism     int        // gather workers, and slices of a parallel plan (1 disables)
	parallelMinRows int        // outer-relation size that justifies slicing
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
// the gather's overhead outweighs the parallel speedup.
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
// planner splits scans and joins into slices across workers.
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
// 256 rows, GOMAXPROCS workers, a 512-entry statement cache, tracing off).
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
// own name, replacing any set registered under it; the next execution
// of every statement that names it plans against the new set. Edit-like
// sets get a DP calculator; all sets within the decidable regime get a
// general search engine.
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
	Stats ExecStats // work counters from the access paths
	// Trace is the per-operator runtime span tree; non-nil only when the
	// execution was traced (EXPLAIN ANALYZE, or SetTracing(true)).
	Trace *obs.Span

	plan string        // the plan text, once known
	tree BatchOperator // the executed tree Plan renders on its first call
}

// Plan returns the statement's plan text: the executed operator tree,
// the whole payload of an EXPLAIN, the span tree with actuals of an
// EXPLAIN ANALYZE, or a DML statement's Mutate tree. An execution keeps
// its operator tree, and with it the snapshot it read, until the first
// call renders it, which must not race with another call.
func (r *Result) Plan() string {
	if r.tree != nil {
		r.plan, r.tree = renderTree(r.tree), nil
	}
	return r.plan
}

// SetTracing toggles span collection for every subsequent execution.
// Traced plans pay a per-operator timing wrapper (see trace.go); the
// serving layer enables this only when a slow-query log is configured.
func (e *Engine) SetTracing(on bool) { e.tracing.Store(on) }

// Tracing reports whether engine-wide span collection is on.
func (e *Engine) Tracing() bool { return e.tracing.Load() }

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
// skips the lexer and the parser, and Result.Stats.PlanCacheHit reports
// whether it did. Parameterized statements cannot run here — bind them
// through Prepare.
func (e *Engine) Execute(src string) (*Result, error) {
	pq, cached, err := e.Statement(src)
	if err != nil {
		return nil, err
	}
	if len(pq.params) > 0 {
		return nil, errors.New("query: statement has bind parameters; use Engine.Prepare")
	}
	res, err := pq.Execute()
	if err != nil {
		return nil, err
	}
	res.Stats.PlanCacheHit = cached
	return res, nil
}

// finishPlan drives a built plan to completion into sink under ctx, or
// renders it for EXPLAIN. EXPLAIN ANALYZE takes the execution path: the
// statement runs to completion with tracing on, the rows are exactly
// the plain statement's (the analyze oracle pins that), and Plan
// carries the span tree rendered with actuals instead of the static
// tree.
func (e *Engine) finishPlan(ctx context.Context, q *Query, plan *compiledPlan, sink RowSink) (*Result, error) {
	if q.Explain && !q.Analyze {
		return explainResult(plan.describe(), sink)
	}
	mQueriesTotal.Inc()
	kernelDispatch(plan.kernel)
	start := time.Now()
	res, err := plan.run(ctx, sink)
	mQueryLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	if plan.ctx.traced {
		res.Trace = plan.extractTrace()
		if q.Analyze && res.Trace != nil {
			res.plan, res.tree = res.Trace.Render(), nil
		}
	}
	return res, nil
}

// explainResult sends an EXPLAIN's one-row, one-column result — the
// rendered tree — through sink.
func explainResult(tree string, sink RowSink) (*Result, error) {
	return singleRow(&Result{Columns: []string{"plan"}, plan: tree}, tree, sink)
}

// singleRow sends the one-cell row of a one-column result through sink.
func singleRow(res *Result, cell string, sink RowSink) (*Result, error) {
	if err := sink(res.Columns, [][]string{{cell}}); err != nil {
		return nil, err
	}
	return res, nil
}

// isVecSim reports whether a similarity conjunct is a vector predicate:
// the field is the vec column, or the target is a vector literal. The
// USING clause of a vector predicate names a distance metric (l2,
// cosine) instead of a rule set.
func isVecSim(ex *SimExpr) bool {
	return ex.Field.Name == "vec" || ex.Target.IsVec
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
