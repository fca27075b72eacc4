package query

// DML execution. INSERT/DELETE/UPDATE statements share the read stack
// with SELECT: the WHERE clause of DELETE and UPDATE is planned by the
// cost-based planner (index access paths included) over an MVCC
// snapshot, matched ids are collected, and the write batch is applied
// through the attached storage.Store — WAL first, then memory — or
// directly to the catalog's relations when no store is attached.
// Either way the relations bump their versions, Catalog.StatsVersion
// moves, and every memoised decision keyed on it is invalidated.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/storage"
)

// SetStore attaches a durable store. Once attached, every mutation the
// engine executes flows through it (WAL then memory); pass nil to
// return to direct in-memory mutation. The store must wrap the same
// catalog the engine queries.
func (e *Engine) SetStore(st *storage.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = st
}

func (e *Engine) storeRef() *storage.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store
}

// execMutation runs a bound DML statement and sends its one-row result
// — the count of rows applied, or the EXPLAIN tree — through sink.
func (e *Engine) execMutation(m *Mutation, sink RowSink) (*Result, error) {
	if _, ok := e.catalog.Lookup(m.Table); !ok {
		return nil, fmt.Errorf("query: unknown relation %q", m.Table)
	}
	switch m.Kind {
	case MutInsert:
		return e.execInsert(m, sink)
	case MutDelete, MutUpdate:
		return e.execDeleteOrUpdate(m, sink)
	default:
		return nil, fmt.Errorf("query: unknown mutation kind %d", m.Kind)
	}
}

// execInsert builds one op per VALUES row and commits the batch. A row
// may carry a seq, a vec, or both — vector-only relations insert rows
// with an empty sequence.
func (e *Engine) execInsert(m *Mutation, sink RowSink) (*Result, error) {
	seqCol, vecCol := -1, -1
	for i, c := range m.Columns {
		switch c {
		case "seq":
			seqCol = i
		case "vec":
			vecCol = i
		}
	}
	if seqCol < 0 && vecCol < 0 {
		return nil, fmt.Errorf("query: INSERT into %q lacks a seq or vec column", m.Table)
	}
	ops := make([]storage.Op, 0, len(m.Rows))
	for _, row := range m.Rows {
		if len(row) != len(m.Columns) {
			return nil, fmt.Errorf("query: INSERT row has %d values, want %d", len(row), len(m.Columns))
		}
		op := storage.Op{Kind: storage.OpInsert, Rel: m.Table}
		for i, v := range row {
			if i == vecCol {
				vec, err := vecValue(v)
				if err != nil {
					return nil, err
				}
				op.Vec = vec
				continue
			}
			if !v.IsLit {
				return nil, fmt.Errorf("query: INSERT values must be literals (got %s)", v)
			}
			if i == seqCol {
				op.Seq = v.Lit
				continue
			}
			if op.Attrs == nil {
				op.Attrs = make(map[string]string, len(row)-1)
			}
			op.Attrs[m.Columns[i]] = v.Lit
		}
		ops = append(ops, op)
	}
	root := fmt.Sprintf("Mutate(insert %d rows into %s)", len(ops), m.Table)
	if m.Explain {
		return explainResult(root, sink)
	}
	applied, err := e.applyOps(ops)
	if err != nil {
		return nil, err
	}
	return mutationResult(applied, ExecStats{}, root, sink)
}

// execDeleteOrUpdate plans the WHERE clause as an internal SELECT id
// query, collects the matching ids from a snapshot, and commits the
// write batch.
func (e *Engine) execDeleteOrUpdate(m *Mutation, sink RowSink) (*Result, error) {
	iq := &Query{
		Select: []Column{{Name: "id"}},
		From:   []TableRef{{Name: m.Table, Alias: m.Table}},
		Where:  m.Where,
	}
	d, err := e.decide(iq)
	if err != nil {
		return nil, err
	}
	plan, err := e.buildPlan(iq, d)
	if err != nil {
		return nil, err
	}
	verb := "delete from"
	if m.Kind == MutUpdate {
		verb = "update"
	}
	root := fmt.Sprintf("Mutate(%s %s)", verb, m.Table)
	if m.Explain {
		return explainResult(mutationTree(root, plan.describe()), sink)
	}
	ids, stats, err := collectIDs(plan)
	if err != nil {
		return nil, err
	}
	// Apply in ascending id order no matter which access path produced
	// the ids (index traversal order is plan-dependent): UPDATE assigns
	// replacement ids in application order, and that assignment must be
	// identical across physical plans — sharded and unsharded engines
	// running the same statement stream must converge to the same ids.
	sort.Ints(ids)

	tab, _ := e.catalog.Lookup(m.Table)
	// One read view for the whole merge loop — per-id Table.Tuple would
	// re-load the head (or shard view) for every matched row.
	var read func(int) (relation.Tuple, bool)
	switch t := tab.(type) {
	case *relation.Relation:
		read = t.Snapshot().Tuple
	case *relation.ShardedRelation:
		read = t.View().Tuple
	default:
		read = tab.Tuple
	}
	ops := make([]storage.Op, 0, len(ids))
	for _, id := range ids {
		if m.Kind == MutDelete {
			ops = append(ops, storage.Op{Kind: storage.OpDelete, Rel: m.Table, ID: id})
			continue
		}
		// UPDATE: merge the SET assignments over the current tuple. A
		// tuple deleted since the read phase is skipped here (and again,
		// defensively, at apply time).
		t, ok := read(id)
		if !ok {
			continue
		}
		seq, vec := t.Seq, t.Vec
		var attrs map[string]string
		if len(t.Attrs) > 0 {
			attrs = make(map[string]string, len(t.Attrs))
			for k, v := range t.Attrs {
				attrs[k] = v
			}
		}
		for _, sc := range m.Set {
			if sc.Name == "vec" {
				v, err := vecValue(sc.Value)
				if err != nil {
					return nil, err
				}
				vec = v
				continue
			}
			if !sc.Value.IsLit {
				return nil, fmt.Errorf("query: SET values must be literals (got %s)", sc.Value)
			}
			if sc.Name == "seq" {
				seq = sc.Value.Lit
				continue
			}
			if attrs == nil {
				attrs = make(map[string]string, len(m.Set))
			}
			attrs[sc.Name] = sc.Value.Lit
		}
		ops = append(ops, storage.Op{Kind: storage.OpUpdate, Rel: m.Table, ID: id, Seq: seq, Vec: vec, Attrs: attrs})
	}
	applied, err := e.applyOps(ops)
	if err != nil {
		return nil, err
	}
	return mutationResult(applied, stats, mutationTree(root, plan.describe()), sink)
}

// vecValue resolves a vec-column DML value: a vector literal directly,
// or a string literal (typically a bound parameter) parsed in the
// canonical vector-literal form.
func vecValue(v Operand) (metric.Vector, error) {
	if v.IsVec {
		return v.Vec, nil
	}
	if v.IsLit {
		vec, err := metric.Parse(v.Lit)
		if err != nil {
			return nil, fmt.Errorf("query: bad vec value: %w", err)
		}
		return vec, nil
	}
	return nil, fmt.Errorf("query: vec values must be vector literals (got %s)", v)
}

// collectIDs drives a read plan and pulls each matched tuple id
// straight out of each block's id column: no result-row
// materialisation, no int -> string -> int round trip.
func collectIDs(plan *compiledPlan) ([]int, ExecStats, error) {
	root := plan.root
	if err := root.OpenBatch(); err != nil {
		root.CloseBatch()
		return nil, ExecStats{}, err
	}
	var ids []int
	for {
		b, err := root.NextBatch()
		if err != nil {
			root.CloseBatch()
			return nil, ExecStats{}, err
		}
		if b == nil {
			break
		}
		ids = append(ids, b.IDs...)
	}
	if err := root.CloseBatch(); err != nil {
		return nil, ExecStats{}, err
	}
	return ids, plan.ctx.snapshot(), nil
}

// applyOps commits a write batch through the attached store, or
// directly to the catalog (storage.Apply — same algorithm, no WAL)
// when none is attached.
func (e *Engine) applyOps(ops []storage.Op) (int, error) {
	if st := e.storeRef(); st != nil {
		res, err := st.Commit(ops)
		return res.Applied, err
	}
	res, err := storage.Apply(e.catalog, ops)
	return res.Applied, err
}

// mutationResult is the uniform DML result: a one-row count relation,
// sent through sink, plus the read-phase work counters and the executed
// plan tree.
func mutationResult(count int, stats ExecStats, plan string, sink RowSink) (*Result, error) {
	return singleRow(&Result{Columns: []string{"count"}, Stats: stats, Plan: plan}, strconv.Itoa(count), sink)
}

// mutationTree renders a Mutate root over its read plan.
func mutationTree(root, readPlan string) string {
	lines := strings.Split(readPlan, "\n")
	tree := root + "\n└─ " + lines[0]
	for _, l := range lines[1:] {
		tree += "\n   " + l
	}
	return tree
}

// IsMutation reports whether the prepared statement is DML. Servers
// route writes by it onto a no-abandon execution path: a write must
// never be reported failed while its commit proceeds.
func (pq *PreparedQuery) IsMutation() bool { return pq.mut != nil }
