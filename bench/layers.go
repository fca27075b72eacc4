package main

import (
	"fmt"
	"time"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// The per-layer probes call each layer's own entry point in-process, on
// the workload's own targets, with a span around every call. They run
// in the traced run only, after the server is gone, so nothing competes
// with them for the two cores.

// probeOps is how many of the sequence's first read ops the query and
// index probes replay; kernelTargets how many targets the kernel loops
// run over the whole relation.
const (
	probeOps      = 64
	kernelTargets = 16
)

// probeSpec says which in-process calls mirror a workload's server-side
// work: the index probe the planner picks for it, the radius its
// edit-distance kernel runs under, and whether it scans the snapshot.
type probeSpec struct {
	index        func(rel *relation.Relation, target string) index.Stats // nil = no index
	kernelRadius int                                                     // QueryDP.Within bound; 0 = no edit-distance kernel
	scan         bool
}

func bkNearest(rel *relation.Relation, target string) index.Stats {
	_, st := rel.BKTree().NearestKStats(target, 10)
	return st
}

func trieRange(radius int) func(*relation.Relation, string) index.Stats {
	return func(rel *relation.Relation, target string) index.Stats {
		_, st := rel.Trie().RangeStats(target, radius)
		return st
	}
}

func vpNearest(rel *relation.Relation, target string) index.Stats {
	l2, _ := metric.Lookup("l2")
	q, _ := metric.Parse(target)
	_, st := rel.VPTree(l2).NearestKFilterStats(q, 10, nil)
	return st
}

// newEngine builds a query engine over rels the way cmd/simqd does on
// its default flags, with the given plan-cache capacity.
func newEngine(rels map[string]*relation.Relation, planCache int) (*query.Engine, error) {
	cat := relation.NewCatalog()
	for _, r := range rels {
		cat.Add(r)
	}
	eng := query.NewEngine(cat, query.WithPlanCacheSize(planCache), query.WithBatchSize(256))
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
	return eng, eng.RegisterRuleSet(rs)
}

// probeLayers fills m with the internal/query, internal/index, kernel,
// internal/relation and internal/storage metrics of workload w.
func (e *env) probeLayers(w *httpWorkload, seq *sequence, rels map[string]*relation.Relation, tr *tracer, m metrics) error {
	spec := w.probe
	rel := rels[w.data[0].rel] // every workload reads one relation
	cached, err := newEngine(rels, 512)
	if err != nil {
		return err
	}
	uncached, err := newEngine(rels, 0)
	if err != nil {
		return err
	}

	// The prepared templates, compiled once as the server does at set-up.
	var prepared []*query.PreparedQuery
	for _, stmt := range w.prepared {
		pq, err := cached.Prepare(stmt)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", stmt, err)
		}
		prepared = append(prepared, pq)
	}

	var planDelta, nodes, verifs []float64
	probed := 0
	for i, o := range seq.ops {
		if probed == probeOps {
			break
		}
		if o.write {
			continue
		}
		probed++
		text := seq.literal(o)
		var failed error
		start := time.Now()
		root := tr.add("inproc.replay", start, start, -1, i) // End patched below
		tr.timed("query.parse", root, i, func() {
			if _, err := query.ParseStatement(text); err != nil {
				failed = err
			}
		})
		run := func(name string, eng *query.Engine) float64 {
			id := tr.timed(name, root, i, func() {
				if _, err := eng.Execute(text); err != nil {
					failed = err
				}
			})
			return float64(tr.spans[id].dur()) / 1e3
		}
		run("query.execute_prime", cached) // fills the plan cache for the next call
		miss := run("query.execute_uncached", uncached)
		hit := run("query.execute_cached", cached)
		planDelta = append(planDelta, miss-hit)
		tr.timed("query.exec_prepared", root, i, func() {
			var err error
			if o.stmt >= 0 {
				_, err = prepared[o.stmt].Execute(seq.args(o)...)
			} else {
				_, err = cached.Execute(text) // an ad hoc op has no template: the cache-hit path is its execution
			}
			if err != nil {
				failed = err
			}
		})
		if spec.index != nil {
			var st index.Stats
			tr.timed("index.probe", root, i, func() { st = spec.index(rel, seq.targets[o.target]) })
			nodes = append(nodes, float64(st.Nodes))
			verifs = append(verifs, float64(st.Verifications))
		}
		tr.spans[root].End = time.Since(tr.t0).Nanoseconds()
		if failed != nil {
			return fmt.Errorf("in-process replay of %q: %w", text, failed)
		}
	}
	m.set("parse_us", median(tr.durationsUS("query.parse")))
	m.set("parse_plan_us", median(planDelta))
	m.set("exec_us", median(tr.durationsUS("query.exec_prepared")))
	if spec.index != nil {
		m.set("index_probe_us", median(tr.durationsUS("index.probe")))
		m.set("index_nodes_per_probe", mean(nodes))
		m.set("index_verifs_per_probe", mean(verifs))
	}

	rows := rel.Tuples()
	if spec.kernelRadius > 0 {
		cands := 0
		id := tr.timed("editdp.myers_batch", -1, -1, func() {
			for k := 0; k < kernelTargets; k++ {
				dp := editdp.NewQueryDP(seq.targets[k])
				for _, t := range rows {
					dp.Within(t.Seq, spec.kernelRadius)
				}
				cands += len(rows)
			}
		})
		m.set("myers_ns_per_cand", float64(tr.spans[id].dur())/float64(cands))
	}
	if w.data[0].dim > 0 {
		l2, _ := metric.Lookup("l2")
		vecs := make([]metric.Vector, len(rows))
		for i, t := range rows {
			vecs[i] = t.Vec
		}
		out := make([]float64, len(vecs))
		id := tr.timed("metric.l2_batch", -1, -1, func() {
			for k := 0; k < kernelTargets; k++ {
				q, _ := metric.Parse(seq.targets[k])
				metric.DistBatch(l2, q, vecs, out)
			}
		})
		m.set("l2_ns_per_vec", float64(tr.spans[id].dur())/float64(kernelTargets*len(vecs)))
		// Computed, not measured: each distance reads one float32 candidate.
		m.set("l2_bytes_per_vec", float64(4*len(vecs[0])))
	}

	if spec.scan {
		const passes = 20
		n := 0
		id := tr.timed("relation.scan", -1, -1, func() {
			var b relation.Block
			for p := 0; p < passes; p++ {
				cur := rel.Snapshot().Shard(0, 1)
				for {
					b.Reset()
					got := cur.NextBlock(&b, 256)
					if got == 0 {
						break
					}
					n += got
				}
			}
		})
		m.set("scan_ns_per_row", float64(tr.spans[id].dur())/float64(n))
	}
	if w.wal {
		if err := e.probeStorage(rel, tr, m); err != nil {
			return err
		}
	}
	return nil
}

// probeStorage times the write path of ingest_mix one layer at a time:
// a relation insert with its indexes live, then the same rows through a
// Store with fsync on, then a checkpoint of the result.
func (e *env) probeStorage(rel *relation.Relation, tr *tracer, m metrics) error {
	const writes = 200
	attrs := map[string]string{"src": "bench"}
	rel.Trie()
	rel.BKTree()
	for i := 0; i < writes; i++ {
		tr.timed("relation.insert", -1, -1, func() {
			rel.InsertOne(relation.InsertRow{Seq: ingestWord(1<<20 + i), Attrs: attrs})
		})
	}
	m.set("insert_us", median(tr.durationsUS("relation.insert")))

	cat := relation.NewCatalog()
	cat.Add(rel)
	st, err := storage.Open(e.newWAL(), cat)
	if err != nil {
		return fmt.Errorf("probe store: %w", err)
	}
	defer st.Close()
	st.SetSync(true)
	st.SetGroupCommit(true)
	userBytes := 0
	for i := 0; i < writes; i++ {
		o := storage.Op{Kind: storage.OpInsert, Rel: rel.Name(), Seq: ingestWord(2<<20 + i), Attrs: attrs}
		userBytes += len(o.Seq) + len("src") + len("bench")
		var err error
		tr.timed("storage.commit", -1, -1, func() { _, err = st.Commit([]storage.Op{o}) })
		if err != nil {
			return fmt.Errorf("probe commit: %w", err)
		}
	}
	m.set("commit_us", median(tr.durationsUS("storage.commit")))
	m.set("wal_bytes_per_user_byte", float64(st.Metrics().WALBytes)/float64(userBytes))
	var info storage.CheckpointInfo
	tr.timed("storage.checkpoint", -1, -1, func() { info, err = st.Checkpoint() })
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	m.set("checkpoint_s", info.Duration.Seconds())
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
