package query

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// storedEngine builds an engine over a WAL-backed store with one
// relation "w" and unit edits registered.
func storedEngine(t *testing.T, dir string) (*Engine, *storage.Store, *relation.Relation) {
	t.Helper()
	cat := relation.NewCatalog()
	w := relation.New("w")
	cat.Add(w)
	st, err := storage.Open(filepath.Join(dir, "wal.log"), cat)
	if err != nil {
		t.Fatal(err)
	}
	st.SetSync(false)
	e := NewEngine(cat)
	e.SetStore(st)
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	return e, st, w
}

// sortedRows renders result rows as sorted strings for byte-identical
// comparison across access paths.
func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// TestWALReplayAndIndexIdentity10k is the PR's acceptance test: after
// 10k interleaved INSERT/DELETE/UPDATE ops, (1) index-backed query
// results are byte-identical to the same query answered by a freshly
// built index and by a full verify-scan oracle, (2) results stay
// byte-identical after forced compaction rebuilds the structures, and
// (3) reopening the store replays the WAL to the identical committed
// state.
func TestWALReplayAndIndexIdentity10k(t *testing.T) {
	dir := t.TempDir()
	e, st, w := storedEngine(t, dir)

	rng := rand.New(rand.NewSource(1995))
	randWord := func() string {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(10))
		}
		return string(b)
	}

	// Seed rows, then touch the index so the remaining ops exercise
	// online maintenance rather than a fresh build at the end.
	var ids []int
	for i := 0; i < 200; i++ {
		id, err := st.Insert("w", randWord(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	exp, err := e.Execute(`EXPLAIN SELECT * FROM w WHERE seq SIMILAR TO "abcde" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp.Plan(), "IndexRange") {
		t.Fatalf("range query not index-backed: %s", exp.Plan())
	}

	// 10k interleaved ops: most through the store's write path, a
	// sampled slice through the SQL DML layer so every stack is hit.
	insStmt, err := e.Prepare(`INSERT INTO w (seq) VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 10000; op++ {
		switch {
		case len(ids) < 50 || rng.Intn(10) < 5: // insert
			if op%10 == 0 {
				if _, err := insStmt.Execute(randWord()); err != nil {
					t.Fatal(err)
				}
				// The id is assigned inside the engine; recover it from
				// the relation — we only need some live ids for deletes.
				ts := w.Tuples()
				ids = append(ids, ts[len(ts)-1].ID)
			} else {
				id, err := st.Insert("w", randWord(), map[string]string{"n": fmt.Sprint(op)})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		case rng.Intn(2) == 0: // delete
			i := rng.Intn(len(ids))
			if ok, err := st.Delete("w", ids[i]); err != nil {
				t.Fatal(err)
			} else if ok {
				ids = append(ids[:i], ids[i+1:]...)
			}
		default: // update
			i := rng.Intn(len(ids))
			nid, ok, err := st.Update("w", ids[i], randWord(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				ids[i] = nid
			}
		}
	}

	// (1) Index-backed results vs fresh index vs scan oracle.
	targets := []string{"abcde", "jihgf", "aaaa", "bcdfg", randWord()}
	type qres struct{ rows []string }
	results := map[string]qres{}
	for _, target := range targets {
		for _, radius := range []int{0, 1, 2} {
			q := fmt.Sprintf(`SELECT * FROM w WHERE seq SIMILAR TO %q WITHIN %d USING unit-edits`, target, radius)
			res, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			got := sortedRows(res.Rows)

			fresh := index.NewBKTree()
			for _, tp := range w.Tuples() {
				fresh.Insert(tp.ID, tp.Seq)
			}
			var want []string
			for _, m := range fresh.Range(target, radius) {
				want = append(want, fmt.Sprintf("%d|%s|%d", m.ID, m.S, int(m.Dist)))
			}
			sort.Strings(want)
			if !reflect.DeepEqual(got, append([]string{}, want...)) {
				t.Fatalf("q=%s: index-backed rows diverge from fresh rebuild:\n got %v\nwant %v", q, got, want)
			}

			scan, _ := index.Scan(w.Entries(), target, float64(radius), index.UnitVerifier)
			var wantScan []string
			for _, m := range scan {
				wantScan = append(wantScan, fmt.Sprintf("%d|%s|%d", m.ID, m.S, int(m.Dist)))
			}
			sort.Strings(wantScan)
			if !reflect.DeepEqual(got, append([]string{}, wantScan...)) {
				t.Fatalf("q=%s: index-backed rows diverge from verify-scan oracle", q)
			}
			results[q] = qres{rows: got}
		}
	}

	// (2) Forced compaction rebuilds arena + indexes; answers must not
	// move a byte.
	w.Compact()
	for q, want := range results {
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want.rows) {
			t.Fatalf("q=%s: post-compaction rows changed", q)
		}
	}

	// (3) Kill (no Close) + reopen replays the WAL to identical state.
	wantTuples := w.Tuples()
	cat2 := relation.NewCatalog()
	cat2.Add(relation.New("w"))
	st2, err := storage.Open(filepath.Join(dir, "wal.log"), cat2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	w2, _ := cat2.Lookup("w")
	if got := w2.Tuples(); !reflect.DeepEqual(got, wantTuples) {
		t.Fatalf("replayed state diverges: %d vs %d rows", len(got), len(wantTuples))
	}
	e2 := NewEngine(cat2)
	if err := e2.RegisterRuleSet(rewrite.UnitEdits("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	for q, want := range results {
		res, err := e2.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want.rows) {
			t.Fatalf("q=%s: replayed engine rows diverge", q)
		}
	}
}

// TestSnapshotIsolationDuringQueries is the readers-never-block-writers
// acceptance test at the engine level: concurrent UPDATE commits keep
// the live row count constant, so every query — each reading one MVCC
// snapshot — must observe exactly that count, never a torn state.
// Run with -race this also proves the read path takes no locks a
// writer could block on.
func TestSnapshotIsolationDuringQueries(t *testing.T) {
	dir := t.TempDir()
	e, _, w := storedEngine(t, dir)
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := e.Execute(fmt.Sprintf(`INSERT INTO w (seq, k) VALUES ("seed%04d", "%d")`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Build the indexes so index plans participate.
	w.BKTree()
	w.Trie()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Execute(`SELECT * FROM w`)
				if err != nil {
					errc <- err
					return
				}
				if len(res.Rows) != n {
					errc <- fmt.Errorf("reader %d saw %d rows, want %d (torn snapshot)", r, len(res.Rows), n)
					return
				}
				res, err = e.Execute(fmt.Sprintf(`SELECT * FROM w WHERE seq SIMILAR TO "seed%04d" WITHIN 1 USING unit-edits`, (r*37+i)%n))
				if err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	// Writer: every UPDATE is one commit that deletes one version and
	// inserts its replacement, so the live count never moves.
	for i := 0; i < 400; i++ {
		k := i % n
		stmt := fmt.Sprintf(`UPDATE w SET seq = "seed%04d" WHERE k = "%d"`, k, k)
		if _, err := e.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
