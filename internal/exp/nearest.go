package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// N1 — NEAREST k by k-th distance: the BK-tree walk (index.BKTree.
// NearestKStats, the access path NEAREST used to take) against the
// bounded scan of the length-ordered view that serves it now (a
// prepared NEAREST k through the query engine), on the planted-duplicate
// words of `datagen -kind words`. Queries are grouped by the distance of
// their k-th neighbour, the quantity that decides whether a metric tree
// can prune.
func N1() (*Table, error) {
	sizes, queries := []int{20000, 200000}, 200
	if Quick {
		sizes, queries = []int{3000}, 40
	}
	t := &Table{
		ID:     "N1",
		Title:  "NEAREST k: BK-tree walk vs length-ordered bounded scan, by k-th distance",
		Header: []string{"rows", "k", "kth dist", "queries", "bk us", "scan us", "bk/scan", "bk verifs", "scan verifs"},
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
		eng := query.NewEngine(cat)
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
				bk, scan            time.Duration
				bkVerifs, scanVerif int
			}
			groups := map[int]*group{}
			for _, q := range targets {
				want, st := bk.NearestKStats(q, k)
				res, err := pq.Execute(q)
				if err != nil {
					return nil, err
				}
				if len(res.Rows) != len(want) {
					return nil, fmt.Errorf("exp: N1 NEAREST %d TO %q: scan %d rows, tree %d", k, q, len(res.Rows), len(want))
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
				g.scanVerif += res.Stats.Verifications
				g.bk += timeOp(func() { bk.NearestKStats(q, k) })
				g.scan += timeOp(func() {
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
					fmt.Sprint(size), fmt.Sprint(k), fmt.Sprint(d), fmt.Sprint(g.n),
					us(g.bk / n), us(g.scan / n), fmt.Sprintf("%.1f", float64(g.bk)/float64(g.scan)),
					fmt.Sprint(g.bkVerifs / g.n), fmt.Sprint(g.scanVerif / g.n),
				})
			}
		}
	}
	t.Notes = "expected shape: identical answers; at full size the scan wins in every group, by the most where the k-th neighbour is nearest (it stops after a few length bands) and still where it is farthest (no edge label prunes and the walk visits most of the tree)"
	return t, nil
}
