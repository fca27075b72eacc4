package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// N1 — the length-ordered view against the metric trees, on the
// planted-duplicate words of `datagen -kind words`. NEAREST k: the
// BK-tree walk (index.BKTree.NearestKStats) against the band walk that
// serves it (a prepared NEAREST k through the query engine), grouped by
// the distance of the k-th neighbour, the quantity that decides whether
// a metric tree can prune. WITHIN r: the BK-tree and trie range searches
// against the band walk that serves it and the engine's full scan (the
// same statement with a no-op disjunct, which no access path can serve).
// Every answer is compared id by id.
func N1() (*Table, error) {
	sizes, queries := []int{20000, 200000}, 200
	if Quick {
		sizes, queries = []int{3000}, 40
	}
	t := &Table{
		ID:    "N1",
		Title: "length-ordered view vs BK-tree and trie: NEAREST k by k-th distance, WITHIN r",
		Header: []string{"rows", "query", "dist", "queries", "bk us", "trie us", "view us", "scan us",
			"bk/view", "bk verifs", "view verifs"},
	}
	a := seq.MustAlphabet(dictAlphabet)
	for _, size := range sizes {
		made := a.PlantedWords(rand.New(rand.NewSource(1)), size) // datagen -seed 1
		rel := relation.New("words")
		for _, w := range made {
			rel.Insert(w, nil)
		}
		rng := rand.New(rand.NewSource(2))
		var targets []string
		for len(targets) < queries {
			if w := a.RandomEdits(rng, made[rng.Intn(len(made))], rng.Intn(3)); w != "" {
				targets = append(targets, w)
			}
		}
		cat := relation.NewCatalog()
		cat.Add(rel)
		// One worker: the full scan would otherwise run in parallel and
		// the comparison would measure the core count.
		eng := query.NewEngine(cat, query.WithParallelism(1))
		if err := eng.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits(dictAlphabet).Rules())); err != nil {
			return nil, err
		}
		bk := rel.BKTree()
		for _, k := range []int{1, 10, 50} {
			pq, err := eng.Prepare(fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST %d TO ? USING edits`, k))
			if err != nil {
				return nil, err
			}
			type group struct {
				n                   int
				bk, view            time.Duration
				bkVerifs, viewVerif int
			}
			groups := map[int]*group{}
			for _, q := range targets {
				want, st := bk.NearestKStats(q, k)
				res, err := pq.Execute(q)
				if err != nil {
					return nil, err
				}
				if len(res.Rows) != len(want) {
					return nil, fmt.Errorf("exp: N1 NEAREST %d TO %q: view %d rows, tree %d", k, q, len(res.Rows), len(want))
				}
				for i, m := range want {
					if res.Rows[i][0] != fmt.Sprint(m.ID) {
						return nil, fmt.Errorf("exp: N1 NEAREST %d TO %q: row %d is id %s, the tree says %d", k, q, i, res.Rows[i][0], m.ID)
					}
				}
				g := groups[int(want[len(want)-1].Dist)]
				if g == nil {
					g = &group{}
					groups[int(want[len(want)-1].Dist)] = g
				}
				g.n++
				g.bkVerifs += st.Verifications
				g.viewVerif += res.Stats.Verifications
				g.bk += timeOp(func() { bk.NearestKStats(q, k) })
				g.view += timeOp(func() {
					if _, err := pq.Execute(q); err != nil {
						panic(err)
					}
				})
			}
			dists := make([]int, 0, len(groups))
			for d := range groups {
				dists = append(dists, d)
			}
			sort.Ints(dists)
			for _, d := range dists {
				g := groups[d]
				n := time.Duration(g.n)
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(size), fmt.Sprintf("NEAREST %d", k), fmt.Sprint(d), fmt.Sprint(g.n),
					us(g.bk / n), "-", us(g.view / n), "-", fmt.Sprintf("%.1f", float64(g.bk)/float64(g.view)),
					fmt.Sprint(g.bkVerifs / g.n), fmt.Sprint(g.viewVerif / g.n),
				})
			}
		}
		rows, err := n1Within(eng, rel, targets)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			t.Rows = append(t.Rows, append([]string{fmt.Sprint(size)}, row...))
		}
	}
	t.Notes = "expected shape: identical answers; view and scan times are prepared executions through the engine (~20 us of plan build and projection included), tree times bare index calls; NEAREST: the view wins in every group at full size; WITHIN: the trees win at r <= 1 (the BK-tree at r=0, the trie at r=1, where their searches stay in a thin band while the view reads whole length bands), the view from r=2 on, and it never loses to the scan"
	return t, nil
}

// n1Within measures WITHIN r for r in {0, 1, 2, 3, 5}: BK-tree and trie
// range searches, the band walk (a prepared WITHIN through the engine)
// and the engine's full scan, with every answer checked id by id. It
// returns one table row per radius, without the leading size column.
func n1Within(eng *query.Engine, rel *relation.Relation, targets []string) ([][]string, error) {
	view, err := eng.Prepare(`SELECT id FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits`)
	if err != nil {
		return nil, err
	}
	scan, err := eng.Prepare(`SELECT id FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits OR seq = "#"`)
	if err != nil {
		return nil, err
	}
	bk, tr := rel.BKTree(), rel.Trie()
	ids := func(ms []index.Match) string {
		out := make([]int, len(ms))
		for i, m := range ms {
			out[i] = m.ID
		}
		sort.Ints(out)
		return fmt.Sprint(out)
	}
	rowIDs := func(res *query.Result) string {
		out := make([]int, len(res.Rows))
		for i, row := range res.Rows {
			out[i], _ = strconv.Atoi(row[0])
		}
		return fmt.Sprint(out) // already ascending: both plans emit in id order
	}
	var rows [][]string
	for _, r := range []int{0, 1, 2, 3, 5} {
		var tBK, tTrie, tView, tScan time.Duration
		bkVerifs, viewVerifs := 0, 0
		for _, q := range targets {
			bms, st := bk.RangeStats(q, r)
			tms, _ := tr.RangeStats(q, r)
			vres, err := view.Execute(q, r)
			if err != nil {
				return nil, err
			}
			sres, err := scan.Execute(q, r)
			if err != nil {
				return nil, err
			}
			want := ids(bms)
			if got := [3]string{ids(tms), rowIDs(vres), rowIDs(sres)}; got != [3]string{want, want, want} {
				return nil, fmt.Errorf("exp: N1 WITHIN %d OF %q: bk %s, trie/view/scan %v", r, q, want, got)
			}
			bkVerifs += st.Verifications
			viewVerifs += vres.Stats.Verifications
			tBK += timeOp(func() { bk.RangeStats(q, r) })
			tTrie += timeOp(func() { tr.RangeStats(q, r) })
			tView += timeOp(func() {
				if _, err := view.Execute(q, r); err != nil {
					panic(err)
				}
			})
			tScan += timeOp(func() {
				if _, err := scan.Execute(q, r); err != nil {
					panic(err)
				}
			})
		}
		n := time.Duration(len(targets))
		rows = append(rows, []string{
			fmt.Sprintf("WITHIN %d", r), fmt.Sprint(r), fmt.Sprint(len(targets)),
			us(tBK / n), us(tTrie / n), us(tView / n), us(tScan / n), fmt.Sprintf("%.1f", float64(tBK)/float64(tView)),
			fmt.Sprint(bkVerifs / len(targets)), fmt.Sprint(viewVerifs / len(targets)),
		})
	}
	return rows, nil
}
