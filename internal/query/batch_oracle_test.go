package query

// The block-size parity oracle: for randomized datasets, statements,
// serial and parallel engines and block sizes, the engine at block size N must be
// indistinguishable from the engine at block size 1 — the degenerate
// row-at-a-time case of the same operators — with byte-identical result
// rows in byte-identical order (both execute the same physical
// decision, so even plan-dependent WITHIN emission order must match
// positionally) and byte-identical table contents (including assigned
// tuple ids) after every interleaved DML batch. That only shows the
// engine agrees with itself, so every statement is also held against
// the brute-force model in oracle_model_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/editdp"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// batchPair is one block-1/block-N engine pair over the same logical
// relation, plus the model both are checked against.
type batchPair struct {
	row   *Engine // WithBatchSize(1): one row per block
	batch *Engine // the configured block size
	model *oracleDB
}

// newBatchPair builds the pair over an empty "words". With slices > 1
// both engines run every scan with per-row work, and every join, as
// that many parallel slices under a GatherMerge(shards=slices).
func newBatchPair(t testing.TB, slices, batchSize int, opts ...Option) *batchPair {
	t.Helper()
	if slices > 1 {
		opts = append(opts, WithParallelism(slices), WithParallelMinRows(1))
	}
	mk := func(size int) *Engine {
		cat := relation.NewCatalog()
		cat.Add(relation.New("words"))
		e := NewEngine(cat, append(opts, WithBatchSize(size))...)
		rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterRuleSet(gapsRules); err != nil {
			t.Fatal(err)
		}
		return e
	}
	return &batchPair{row: mk(1), batch: mk(batchSize), model: &oracleDB{}}
}

// exec runs one statement on both engines, asserts positional
// byte-identity of the results, holds them against the model (which a
// DML statement updates) and returns the result.
func (p *batchPair) exec(t *testing.T, stmt string) *Result {
	t.Helper()
	r, rerr := p.row.Execute(stmt)
	b, berr := p.batch.Execute(stmt)
	if rerr != nil || berr != nil {
		t.Fatalf("%q: block 1: %v, block N: %v", stmt, rerr, berr)
	}
	if strings.Join(r.Columns, "\x1f") != strings.Join(b.Columns, "\x1f") {
		t.Fatalf("%q: columns diverge: %v vs %v", stmt, r.Columns, b.Columns)
	}
	if positional(r) != positional(b) {
		t.Fatalf("%q: rows diverge:\nblock 1:\n%s\nblock N:\n%s\nblock-1 plan:\n%s\nblock-N plan:\n%s",
			stmt, positional(r), positional(b), r.Plan(), b.Plan())
	}
	p.model.checkModel(t, stmt, b)
	return r
}

// checkDump asserts byte-identical table contents (ids included)
// across both engines and the model.
func (p *batchPair) checkDump(t *testing.T) {
	t.Helper()
	r, b := dumpWords(p.row), dumpWords(p.batch)
	if r != b {
		t.Fatalf("table contents diverge after DML:\nblock 1:\n%s\nblock N:\n%s", r, b)
	}
	if m := p.model.dump(); b != m {
		t.Fatalf("table contents diverge from the model after DML:\nengine:\n%s\nmodel:\n%s", b, m)
	}
}

// seedRows inserts the same random rows into both engines in one batch.
func (p *batchPair) seedRows(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	values := make([]string, 0, n)
	for i := 0; i < n; i++ {
		values = append(values, fmt.Sprintf("(%q, %q)", randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
	}
	p.exec(t, "INSERT INTO words (seq, tag) VALUES "+strings.Join(values, ", "))
	p.checkDump(t)
}

// randBatchStmt draws one random read statement covering every access
// family and decorator the engine implements: WITHIN at the
// radii that cross the index/scan cost boundary, NEAREST, residual
// equality filters, OR/NOT shapes, pattern similarity, the dist
// pseudo-field, ORDER BY in both directions and LIMIT with and without
// it.
func randBatchStmt(rng *rand.Rand) string {
	target := randOracleSeq(rng)
	tag := string(oracleAlphabet[rng.Intn(3)])
	switch rng.Intn(10) {
	case 0:
		return "SELECT * FROM words"
	case 1:
		return fmt.Sprintf(`SELECT * FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits`, target, rng.Intn(4))
	case 2:
		return fmt.Sprintf(`SELECT seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits AND tag = %q`,
			target, rng.Intn(4), tag)
	case 3:
		dir := "ASC"
		if rng.Intn(2) == 0 {
			dir = "DESC"
		}
		return fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits ORDER BY dist %s LIMIT %d`,
			target, 1+rng.Intn(3), dir, 1+rng.Intn(20))
	case 4:
		return fmt.Sprintf(`SELECT * FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits LIMIT %d`,
			target, rng.Intn(4), 1+rng.Intn(8))
	case 5:
		return fmt.Sprintf(`SELECT seq, dist FROM words WHERE seq NEAREST %d TO %q USING %s`,
			1+rng.Intn(12), target, []string{"edits", "edits", "gaps"}[rng.Intn(3)])
	case 6:
		return fmt.Sprintf(`SELECT * FROM words WHERE tag != %q LIMIT %d`, tag, 1+rng.Intn(10))
	case 7:
		return fmt.Sprintf(`SELECT * FROM words WHERE NOT (tag = %q) OR seq SIMILAR TO %q WITHIN 1 USING edits`, tag, target)
	case 8:
		return fmt.Sprintf(`SELECT seq FROM words WHERE seq SIMILAR TO PATTERN "a(b|c)*d" WITHIN %d USING edits`, rng.Intn(3))
	default:
		return fmt.Sprintf(`SELECT seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN 3 USING edits AND dist != "2"`, target)
	}
}

// applyRandomDML runs one random mutation through both engines.
func (p *batchPair) applyRandomDML(t *testing.T, rng *rand.Rand) {
	t.Helper()
	target := randOracleSeq(rng)
	switch rng.Intn(4) {
	case 0:
		p.exec(t, fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)",
			randOracleSeq(rng), string(oracleAlphabet[rng.Intn(3)])))
	case 1:
		p.exec(t, fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, target))
	case 2:
		tab, _ := p.row.Catalog().Lookup("words")
		tups := tab.Tuples()
		if len(tups) == 0 {
			return
		}
		p.exec(t, fmt.Sprintf(`DELETE FROM words WHERE id = "%d"`, tups[rng.Intn(len(tups))].ID))
	case 3:
		p.exec(t, fmt.Sprintf(`UPDATE words SET seq = %q WHERE seq SIMILAR TO %q WITHIN 1 USING edits`,
			randOracleSeq(rng), target))
	}
}

// TestBlockParityOracle is the main property test: a serial engine and
// one of four parallel slices (shards=4, the GatherMerge's stream count)
// crossed with block sizes 4, 64 and 256, random reads against block
// size 1 and the model with interleaved DML, table dumps compared after
// every mutation generation.
func TestBlockParityOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, size := range []int{4, 64, 256} {
			shards, size := shards, size
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, size), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*shards + size)))
				p := newBatchPair(t, shards, size)
				p.seedRows(t, rng, 150)
				for gen := 0; gen < 5; gen++ {
					for i := 0; i < 8; i++ {
						p.applyRandomDML(t, rng)
					}
					p.checkDump(t)
					for i := 0; i < 10; i++ {
						p.exec(t, randBatchStmt(rng))
					}
					// Repeat one statement so the second run exercises the
					// statement-cache hit path, which plans afresh.
					stmt := randBatchStmt(rng)
					p.exec(t, stmt)
					p.exec(t, stmt)
				}
			})
		}
	}
}

// TestBatchParityParallel crosses a small block size with the
// parallel-scan machinery: both engines run their scan pipelines over
// one relation (shards=1) as 4 id-range slices under the gather and
// must still match positionally.
func TestBatchParityParallel(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(78))
		p := newBatchPair(t, 4, 32)
		p.seedRows(t, rng, 200)
		for i := 0; i < 30; i++ {
			p.exec(t, randBatchStmt(rng))
		}
	})
}

// TestBatchParityPrepared drives both engines through the prepared-
// statement path: one template, many bindings, each planned afresh.
func TestBatchParityPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newBatchPair(t, 1, 64)
	p.seedRows(t, rng, 120)

	const tmpl = `SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits ORDER BY dist LIMIT ?`
	rq, err := p.row.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := p.batch.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		target, radius, limit := randOracleSeq(rng), rng.Intn(4), 1+rng.Intn(10)
		rr, err := rq.Execute(target, radius, limit)
		if err != nil {
			t.Fatalf("block-1 prepared: %v", err)
		}
		br, err := bq.Execute(target, radius, limit)
		if err != nil {
			t.Fatalf("block-64 prepared: %v", err)
		}
		if positional(rr) != positional(br) {
			t.Fatalf("prepared (%q, %d, %d) diverges:\nblock 1:\n%s\nblock 64:\n%s",
				target, radius, limit, positional(rr), positional(br))
		}
		// The bound statement, spelled out, is inside the model's language.
		p.model.checkModel(t, fmt.Sprintf(
			`SELECT seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits ORDER BY dist LIMIT %d`,
			target, radius, limit), br)
	}
}

// TestBatchParityConcurrentDML runs block-64 reads against live
// concurrent writers — the serving pattern — primarily for the race
// detector (the targeted -race CI step runs 'Batch' tests); once the
// writers quiesce, both engines must agree byte for byte again.
func TestBatchParityConcurrentDML(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := newBatchPair(t, 4, 64)
	p.seedRows(t, rng, 150)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var written []string // owned by the writer until wg.Wait returns
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Mirror every write on both engines so they converge.
			stmt := fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)",
				"aceb"+strings.Repeat("j", i%5)+string(oracleAlphabet[i%10]), "1")
			if _, err := p.row.Execute(stmt); err != nil {
				t.Error(err)
				return
			}
			if _, err := p.batch.Execute(stmt); err != nil {
				t.Error(err)
				return
			}
			written = append(written, stmt)
		}
	}()
	queries := []string{
		`SELECT * FROM words WHERE seq SIMILAR TO "acebd" WITHIN 2 USING edits`,
		`SELECT seq, dist FROM words WHERE seq NEAREST 5 TO "acebd" USING edits`,
		`SELECT * FROM words WHERE tag != "1" LIMIT 4`,
	}
	for i := 0; i < 60; i++ {
		if _, err := p.batch.Execute(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, stmt := range written {
		p.model.checkModel(t, stmt, nil)
	}
	p.checkDump(t)
	for _, q := range queries {
		p.exec(t, q)
	}
}

// TestNearestModelCases holds NEAREST and WITHIN against the model on
// the inputs their access path — the band walk of the length-ordered
// view — treats specially: k of 1, 10 and more than the live rows,
// integral and fractional radii, duplicate strings (ties broken by id),
// an empty target, a target beyond one Myers word, rows and a target
// holding bytes outside the rule alphabet (which the unit rule set
// cannot edit: +Inf, not Levenshtein), a weighted rule set (which must
// not inherit the unit length cut-off), rows deleted and updated after
// the view was built, and a plan whose snapshot predates an insert.
// Serial and over four parallel slices, block sizes 1 and 256.
func TestNearestModelCases(t *testing.T) {
	long := strings.Repeat("abcdefghij", 7) // 70 bytes: the block kernel
	targets := []string{"", "a", "acebd", "acZbd", "jjjjjjjjjjjj", long, long[:64] + "jj" + long[66:]}
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + shards)))
			p := newBatchPair(t, shards, 256)
			p.seedRows(t, rng, 120)
			p.exec(t, fmt.Sprintf(`INSERT INTO words (seq, tag) VALUES ("acebd", "a"), ("acebd", "b"), ("acebd", "c"), ("", "a"), (%q, "a"), (%q, "b"), (%q, "c")`,
				long, long[:69], strings.Repeat("j", 130)))
			p.exec(t, `INSERT INTO words (seq, tag) VALUES ("acZbd", "a"), ("acebZ", "b"), ("ace-bd", "c"), ("Acebd", "a"), ("acebd.", "b")`)
			nearest := func() {
				t.Helper()
				for _, target := range targets {
					for _, k := range []int{1, 10, 500} {
						for _, rs := range []string{"edits", "gaps"} {
							p.exec(t, fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq NEAREST %d TO %q USING %s`, k, target, rs))
						}
					}
					for _, r := range []string{"0", "1", "1.5", "2"} {
						p.exec(t, fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %s USING edits`, target, r))
					}
				}
			}
			nearest() // builds the view
			p.exec(t, `DELETE FROM words WHERE seq = "acebd" AND tag = "b"`)
			p.exec(t, fmt.Sprintf(`UPDATE words SET seq = "acebdd" WHERE seq = %q`, long[:69]))
			p.exec(t, `DELETE FROM words WHERE seq SIMILAR TO "acebd" WITHIN 2 USING edits AND tag = "a"`)
			p.checkDump(t)
			nearest()

			// A plan built now keeps its snapshot: the exact match inserted
			// before it runs is invisible to it and visible to the next one.
			const stmt = `SELECT id, seq, dist FROM words WHERE seq NEAREST 3 TO "hhhh" USING edits`
			var plans []*compiledPlan
			for _, e := range []*Engine{p.row, p.batch} {
				q, err := Parse(stmt)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := e.planQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
			}
			before := *p.model
			before.rows = append([]oracleRow(nil), p.model.rows...)
			p.exec(t, `INSERT INTO words (seq, tag) VALUES ("hhhh", "a")`)
			for _, plan := range plans {
				var c collector
				res, err := c.result(plan.run(context.Background(), c.add))
				if err != nil {
					t.Fatal(err)
				}
				before.checkModel(t, stmt, res)
			}
			p.exec(t, stmt)
		})
	}
}

// TestNearestPrefixProperty is the metamorphic property a total
// (dist, id) order licenses: the answer to NEAREST k is a prefix of the
// answer to NEAREST k+1, for every k up to past the live row count.
func TestNearestPrefixProperty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(57 + shards)))
			p := newBatchPair(t, shards, 256)
			p.seedRows(t, rng, 60)
			for i := 0; i < 6; i++ {
				p.applyRandomDML(t, rng)
			}
			for _, rs := range []string{"edits", "gaps"} {
				for i := 0; i < 4; i++ {
					target := randOracleSeq(rng)
					prev := ""
					for k := 1; k <= 64; k++ {
						res, err := p.batch.Execute(fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST %d TO %q USING %s`, k, target, rs))
						if err != nil {
							t.Fatal(err)
						}
						got := positional(res)
						if !strings.HasPrefix(got, prev) {
							t.Fatalf("NEAREST %d TO %q USING %s is not a prefix of NEAREST %d:\n%s\nvs\n%s", k-1, target, rs, k, prev, got)
						}
						prev = got
					}
				}
			}
		})
	}
}

// TestNearestReadersVsInserter runs NEAREST, WITHIN and seq-join
// readers against a live inserter on one relation, so readers walk
// the shared length-ordered view while the commit path appends to
// it (the targeted -race CI step runs 'Nearest' tests). Every answer
// must be correctly ordered and correctly measured for some committed
// state — with an insert-only writer the k-th distance can only fall,
// and a WITHIN or join answer only grow, between a reader's successive
// answers — and once the writer stops both engines must agree with the
// model again.
func TestNearestReadersVsInserter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := newBatchPair(t, 1, 256)
	p.seedRows(t, rng, 150)
	const target, k, radius = "acebd", 5, 2
	probe := relation.New("probe")
	probe.Insert(target, nil)
	p.batch.Catalog().Add(probe)
	nearest := fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq NEAREST %d TO %q USING edits`, k, target)
	// Both range statements answer (id, seq, dist) rows in ascending id.
	ranges := []string{
		fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits`, target, radius),
		fmt.Sprintf(`SELECT w.id, w.seq, dist FROM probe p, words w ON dist(p.seq, w.seq) <= %d USING edits`, radius),
	}
	p.exec(t, nearest) // builds the view the writer will extend

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	var written []string // owned by the writer until writer.Wait returns
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// New lengths (new buckets) and growing buckets alike; every
			// so often a row nearer than anything before it.
			seq := strings.Repeat("j", i%23) + string(oracleAlphabet[i%10])
			if i%40 == 39 {
				seq = target[:len(target)-1] + string(oracleAlphabet[(i/40)%10])
			}
			ins := fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)", seq, "a")
			for _, e := range []*Engine{p.row, p.batch} {
				if _, err := e.Execute(ins); err != nil {
					t.Error(err)
					return
				}
			}
			written = append(written, ins)
		}
	}()
	// checkRow parses one (id, seq, dist) row and checks its distance.
	checkRow := func(row []string) (id, d int, ok bool) {
		id, _ = strconv.Atoi(row[0])
		d, _ = strconv.Atoi(row[2])
		if want := editdp.Levenshtein(row[1], target); d != want {
			t.Errorf("row %v: distance is %d", row, want)
			return 0, 0, false
		}
		return id, d, true
	}
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			kth, rows := 1<<30, make([]int, len(ranges))
			for i := 0; i < 150; i++ {
				if r%3 == 2 {
					res, err := p.batch.Execute(nearest)
					if err != nil {
						t.Error(err)
						return
					}
					if len(res.Rows) != k {
						t.Errorf("%d rows, want %d", len(res.Rows), k)
						return
					}
					prevD, prevID := -1, -1
					for _, row := range res.Rows {
						id, d, ok := checkRow(row)
						if !ok {
							return
						}
						if d < prevD || d == prevD && id <= prevID {
							t.Errorf("answer not in (dist, id) order:\n%s", positional(res))
							return
						}
						prevD, prevID = d, id
					}
					if prevD > kth {
						t.Errorf("k-th distance rose from %d to %d under an insert-only writer", kth, prevD)
						return
					}
					kth = prevD
					continue
				}
				stmt := ranges[r%3]
				res, err := p.batch.Execute(stmt)
				if err != nil {
					t.Error(err)
					return
				}
				prevID := -1
				for _, row := range res.Rows {
					id, d, ok := checkRow(row)
					if !ok {
						return
					}
					if d > radius || id <= prevID {
						t.Errorf("%s: row %v out of range or out of id order:\n%s", stmt, row, positional(res))
						return
					}
					prevID = id
				}
				if len(res.Rows) < rows[r%3] {
					t.Errorf("%s shrank from %d to %d rows under an insert-only writer", stmt, rows[r%3], len(res.Rows))
					return
				}
				rows[r%3] = len(res.Rows)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	for _, ins := range written {
		p.model.checkModel(t, ins, nil)
	}
	p.checkDump(t)
	p.exec(t, nearest)
	p.exec(t, ranges[0])
}
