package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/relation"
)

// For a target of 1–15 bytes over a snapshot inside the rule alphabet,
// the band walk verifies a band's surviving rows editdp.RowLanes at a
// time through the lane-packed Myers kernel. These tests hold it
// against the per-row walk it replaced and against brute force, on
// bands of 0–9 rows whose ties on (dist, id) straddle group and band
// ends, at target lengths on both sides of the packed kernel's limits.

// packedLens are the band lengths of packedRows: every length around
// the targets of packedTargetLens.
var packedLens = append(rangeInts(0, 20), rangeInts(64, 76)...)

// packedTargetLens are the target lengths: 0 and 16 and 70 are outside
// the packed kernel, 1 and 15 its edges.
var packedTargetLens = []int{0, 1, 15, 16, 70}

func rangeInts(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// packedRows returns rows in which each length of packedLens holds 0–9
// rows, drawn from three strings per length over a five-letter
// alphabet so that equal distances tie and fall back on the id. The
// rows are shuffled, so ids interleave across bands. With uncovered,
// every seventh row gets a byte outside the a–z rule alphabet.
func packedRows(rng *rand.Rand, uncovered bool) []string {
	var rows []string
	for _, n := range packedLens {
		pool := make([]string, 3)
		for i := range pool {
			pool[i] = randWord(rng, "abcde", n)
		}
		for c := rng.Intn(10); c > 0; c-- {
			rows = append(rows, pool[rng.Intn(len(pool))])
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if uncovered {
		for i := 0; i < len(rows); i += 7 {
			if b := []byte(rows[i]); len(b) > 0 {
				b[rng.Intn(len(b))] = "A-\xff"[rng.Intn(3)]
				rows[i] = string(b)
			}
		}
	}
	return rows
}

func randWord(rng *rand.Rand, alpha string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// packedTargets returns, for each length of packedTargetLens, a row of
// that length (so distance 0 and its ties occur) and a random string.
func packedTargets(rng *rand.Rand, rows []string) []string {
	var out []string
	for _, n := range packedTargetLens {
		for _, s := range rows {
			if len(s) == n && strings.Trim(s, "abcde") == "" {
				out = append(out, s)
				break
			}
		}
		out = append(out, randWord(rng, "abcdef", n))
	}
	return out
}

// newBandWalk returns a walk for target with no bound. unit must be
// unitCost of calc's rule set, which the registry computes once per
// rule set.
func newBandWalk(calc *editdp.Calculator, unit bool, target string) *bandWalk {
	w := &bandWalk{}
	w.init(calc, unit, target)
	return w
}

// perRowWalk is the band walk before rows were packed: each row that
// passes the signature test is verified alone by w.verify, with the
// bound re-read per row.
func perRowWalk(w *bandWalk, snap *relation.Snapshot, covered bool, emit func(row *relation.Row, d float64)) ExecStats {
	var st ExecStats
	bands := snap.LengthView().Bands(len(w.target))
	for b, ok := bands.Next(); ok; b, ok = bands.Next() {
		delta := b.Len - len(w.target)
		if w.bounded && max(delta, -delta) > w.ibound {
			break
		}
		st.Candidates += len(b.Ents)
		longer := max(delta, 0)
		for i := 0; i < len(b.Ents); i++ {
			if w.bounded {
				if i = index.NextWithin(b.Sigs, w.qsig, w.ibound-longer, i); i == len(b.Ents) {
					break
				}
			}
			e := &b.Ents[i]
			st.Verifications++
			d, within := w.verify(e.Seq, covered)
			if !within {
				st.Abandoned++
				continue
			}
			if snap.VisibleRow(e.Row) {
				emit(e.Row, d)
			}
		}
	}
	return st
}

// TestKernelPackedWalkMatchesPerRow: at WITHIN r for r in 0..5 the
// walk emits the same rows, in the same order and at the same
// distances, and counts the same candidates, verifications and
// abandoned verifications as the per-row walk — on covered snapshots,
// where targets of 1–15 bytes take the packed kernel, and on snapshots
// with rows outside the rule alphabet, where no row does.
func TestKernelPackedWalkMatchesPerRow(t *testing.T) {
	for _, uncovered := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		rows := packedRows(rng, uncovered)
		e, rel := sigCapEngine(t, rows, 256)
		ent, _ := e.rule("edits")
		snap := rel.Snapshot()
		covered := covers(ent.calc, snap)
		if covered == uncovered {
			t.Fatalf("uncovered %v: snapshot covered %v", uncovered, covered)
		}
		for _, q := range packedTargets(rng, rows) {
			for r := 0; r <= 5; r++ {
				var got, want []string
				w := newBandWalk(ent.calc, ent.unit, q)
				w.setBound(float64(r))
				gst, _ := w.walk(e.newExecCtx(&Query{}), snap, covered, func(row *relation.Row, d float64) {
					got = append(got, fmt.Sprintf("%d:%g", row.ID, d))
				})
				wst := perRowWalk(w, snap, covered, func(row *relation.Row, d float64) {
					want = append(want, fmt.Sprintf("%d:%g", row.ID, d))
				})
				if !slices.Equal(got, want) || gst != wst {
					t.Fatalf("uncovered %v, target %q, WITHIN %d:\n got %v %+v\nwant %v %+v", uncovered, q, r, got, gst, want, wst)
				}
			}
		}
	}
}

// TestNearestPackedOracle: NEAREST k answers the k smallest (dist, id)
// pairs of a brute-force Levenshtein scan — rows with a byte outside
// the rule alphabet are infinitely far and never answer — at block
// sizes 1 and 256, where ties straddle the walk's groups and bands.
func TestNearestPackedOracle(t *testing.T) {
	for _, uncovered := range []bool{false, true} {
		rng := rand.New(rand.NewSource(12))
		rows := packedRows(rng, uncovered)
		targets := packedTargets(rng, rows)
		for _, block := range []int{1, 256} {
			e, _ := sigCapEngine(t, rows, block)
			for _, q := range targets {
				var ids []int
				dists := make([]int, len(rows))
				for id, s := range rows {
					if strings.Trim(s, sigCapAlphabet) == "" {
						ids = append(ids, id)
						dists[id] = editdp.Levenshtein(q, s)
					}
				}
				slices.SortStableFunc(ids, func(a, b int) int { return dists[a] - dists[b] })
				for _, k := range []int{1, 5, 10, 20} {
					var want []string
					for _, id := range ids[:min(k, len(ids))] {
						want = append(want, fmt.Sprintf("%d:%d", id, dists[id]))
					}
					stmt := fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST %d TO %q USING edits`, k, q)
					res, err := e.Execute(stmt)
					if err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
					if got := idDistRows(res); !slices.Equal(got, want) {
						t.Fatalf("uncovered %v, block %d: %s\n got %v\nwant %v", uncovered, block, stmt, got, want)
					}
				}
			}
		}
	}
}
