package query

// Execution plumbing shared by every operator: the per-query work
// counters, the compiled plan with its run loop, EXPLAIN rendering and
// the result header.

import (
	"context"
	"strings"
	"sync"

	"repro/internal/index"
)

// ExecStats counts the work one query execution performed; exposed on
// Result so callers (and the LIMIT-pushdown regression tests) can see
// how many candidates an access path actually touched.
type ExecStats struct {
	Candidates    int // tuples and index nodes examined by access paths
	Verifications int // distance computations and predicate evaluations
	Nodes         int // tree-index nodes visited during index traversals
	Pruned        int // index subtrees skipped by a pruning bound
	Abandoned     int // verifications cut short by the early-abandon bound
	// PlanCacheHit: this execution lexed and parsed nothing — a
	// statement-cache hit under Engine.Execute, always for a handle
	// from Prepare. Every execution plans afresh either way.
	PlanCacheHit bool
}

// add folds another operator's counters into s (PlanCacheHit is a
// per-execution flag, not a counter, and is left alone).
func (s *ExecStats) add(o ExecStats) {
	s.Candidates += o.Candidates
	s.Verifications += o.Verifications
	s.Nodes += o.Nodes
	s.Pruned += o.Pruned
	s.Abandoned += o.Abandoned
}

// fromIndexStats lifts an index iterator's work counters into the
// executor's schema.
func fromIndexStats(st index.Stats) ExecStats {
	return ExecStats{
		Candidates:    st.Candidates,
		Verifications: st.Verifications,
		Nodes:         st.Nodes,
		Pruned:        st.Pruned,
		Abandoned:     st.Abandoned,
	}
}

// execCtx is shared by every operator of one executing query.
type execCtx struct {
	eng    *Engine
	traced bool            // collect per-operator spans (EXPLAIN ANALYZE / engine tracing)
	ctx    context.Context // the execution's; its cancellation points read it (err)

	mu    sync.Mutex
	stats ExecStats
}

// newExecCtx returns the context of one execution of q, under
// context.Background until run says otherwise.
func (e *Engine) newExecCtx(q *Query) *execCtx {
	return &execCtx{eng: e, traced: q.Analyze || e.tracing.Load(), ctx: context.Background()}
}

// err is the cancellation point: ctx's error once it is done, nil
// before. The scan and the run loop read it per block, the band walks
// per band and the join per outer row, never per row.
func (c *execCtx) err() error {
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}

// addStats merges an operator's local counters; safe for concurrent use
// by parallel slice workers.
func (c *execCtx) addStats(s ExecStats) {
	if s.Nodes > 0 {
		mIndexVisited.Add(int64(s.Nodes))
	}
	if s.Pruned > 0 {
		mIndexPruned.Add(int64(s.Pruned))
	}
	c.mu.Lock()
	c.stats.add(s)
	c.mu.Unlock()
}

func (c *execCtx) snapshot() ExecStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// compiledPlan is the planner's output: the operator tree plus the
// result header it produces.
type compiledPlan struct {
	root    BatchOperator
	kernel  string // decided distance kernel (dispatch metric)
	ctx     *execCtx
	columns []string
}

// describe renders the operator tree for EXPLAIN.
func (p *compiledPlan) describe() string { return renderTree(p.root) }

// RowSink receives a statement's rows one block at a time, in order,
// with the result header. The producer reuses the rows slice and every
// row's cell array for its next block, so both are valid only during
// the call; the cell strings are immutable and may be kept. A non-nil
// error stops the execution, which returns that error.
type RowSink func(columns []string, rows [][]string) error

// discardRows is the sink of an execution whose rows nobody reads.
func discardRows([]string, [][]string) error { return nil }

// collector is the sink behind Execute: it keeps every row, copying
// each block's row and cell slices (not the strings) before the
// producer reuses them.
type collector struct{ rows [][]string }

func (c *collector) add(_ []string, rows [][]string) error {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	cells := make([]string, 0, n)
	for _, r := range rows {
		at := len(cells)
		cells = append(cells, r...)
		c.rows = append(c.rows, cells[at:len(cells):len(cells)])
	}
	return nil
}

// result completes an execution into c: the rows it collected become
// the Result's.
func (c *collector) result(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res.Rows = c.rows
	return res, nil
}

// run drives the operator tree to completion under ctx, handing each
// block's projected rows to sink. The result carries the header, the
// tree Result.Plan renders and the work counters; its Rows are left to
// the sink.
func (p *compiledPlan) run(ctx context.Context, sink RowSink) (*Result, error) {
	p.ctx.ctx = ctx
	if err := p.root.OpenBatch(); err != nil {
		p.root.CloseBatch()
		return nil, err
	}
	for {
		b, err := p.root.NextBatch()
		if err == nil && b != nil {
			if err = p.ctx.err(); err == nil && len(b.rows) > 0 {
				err = sink(p.columns, b.rows)
			}
		}
		if err != nil {
			p.root.CloseBatch()
			return nil, err
		}
		if b == nil {
			break
		}
	}
	if err := p.root.CloseBatch(); err != nil {
		return nil, err
	}
	return &Result{Columns: p.columns, Stats: p.ctx.snapshot(), tree: p.root}, nil
}

// renderTree renders an operator tree with box-drawing indentation; an
// operator that dispatches to a distance kernel carries the kernel's
// name after its label:
//
//	Limit(3)
//	└─ Project(seq, dist)
//	   └─ Filter(lang = "en")
//	      └─ IndexRange(words via lengthview, target=color, radius=1, ruleset=edits)  (kernel=myers)
func renderTree(root BatchOperator) string {
	var b strings.Builder
	var walk func(node BatchOperator, prefix string, last bool, root bool)
	walk = func(node BatchOperator, prefix string, last, root bool) {
		if !root {
			b.WriteString("\n")
			b.WriteString(prefix)
			if last {
				b.WriteString("└─ ")
				prefix += "   "
			} else {
				b.WriteString("├─ ")
				prefix += "│  "
			}
		}
		b.WriteString(node.Describe())
		if k := kernelOf(node); k != "" {
			b.WriteString("  (kernel=" + k + ")")
		}
		kids := node.childNodes()
		for i, k := range kids {
			walk(k, prefix, i == len(kids)-1, false)
		}
	}
	walk(root, "", true, true)
	return b.String()
}

// kernelTag names the distance kernel an operator dispatches to ("" =
// none). The planner sets it at construction; EXPLAIN and the ANALYZE
// span of the operator both read it from here.
type kernelTag struct{ kernel string }

func (k kernelTag) kernelLabel() string { return k.kernel }

// kernelOf reads an operator's kernel label, "" when it runs none.
func kernelOf(op BatchOperator) string {
	if k, ok := op.(interface{ kernelLabel() string }); ok {
		return k.kernelLabel()
	}
	return ""
}

// projectColumns computes the result header for a query's projection.
func projectColumns(q *Query) []string {
	var cols []string
	if len(q.Select) > 0 {
		for _, c := range q.Select {
			cols = append(cols, c.String())
		}
		return cols
	}
	// '*': id and seq per alias, then dist. Aliases are prefixed as soon
	// as more than one relation is in scope.
	for _, ref := range q.From {
		prefix := ""
		if len(q.From) > 1 {
			prefix = ref.Alias + "."
		}
		cols = append(cols, prefix+"id", prefix+"seq")
	}
	return append(cols, "dist")
}
