package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardOfBounds: the partitioner stays in range and is
// deterministic.
func TestShardOfBounds(t *testing.T) {
	seqs := []string{"", "a", "abc", "zzzz", "colour", "\x00\xff"}
	for _, s := range seqs {
		for _, n := range []int{1, 2, 4, 7, 16} {
			got := ShardOf(s, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", s, n, got)
			}
			if again := ShardOf(s, n); again != got {
				t.Fatalf("ShardOf(%q, %d) not deterministic: %d then %d", s, n, got, again)
			}
		}
		if ShardOf(s, 1) != 0 {
			t.Fatalf("ShardOf(%q, 1) != 0", s)
		}
	}
}

// TestShardOfSpread: on a few thousand distinct sequences every shard
// of a 8-way split receives a meaningful fraction (hash quality floor).
func TestShardOfSpread(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for i := 0; i < 4000; i++ {
		counts[ShardOf(fmt.Sprintf("seq-%d", i), n)]++
	}
	for sh, c := range counts {
		if c < 4000/n/2 {
			t.Fatalf("shard %d got %d of 4000 rows; partitioner badly skewed: %v", sh, c, counts)
		}
	}
}

// TestShardedIDParity: a sharded relation assigns exactly the ids its
// unsharded twin does across interleaved inserts, deletes and updates,
// and materialises identical tuples in identical order.
func TestShardedIDParity(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		plain := New("w")
		sharded := NewSharded("w", shards)
		rng := rand.New(rand.NewSource(int64(shards)))
		var live []int
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(live) == 0:
				seq := randSeq(rng)
				a := plain.Insert(seq, map[string]string{"n": fmt.Sprint(step)})
				b := sharded.Insert(seq, map[string]string{"n": fmt.Sprint(step)})
				if a != b {
					t.Fatalf("shards=%d step %d: insert ids diverge: %d vs %d", shards, step, a, b)
				}
				live = append(live, a)
			case op < 8:
				id := live[rng.Intn(len(live))]
				a := plain.Delete(id)
				b := sharded.Delete(id)
				if a != b {
					t.Fatalf("shards=%d step %d: delete(%d) diverges: %v vs %v", shards, step, id, a, b)
				}
				live = removeID(live, id)
			default:
				id := live[rng.Intn(len(live))]
				seq := randSeq(rng)
				a, aok := plain.Update(id, seq, nil)
				b, bok := sharded.Update(id, seq, nil)
				if a != b || aok != bok {
					t.Fatalf("shards=%d step %d: update(%d) diverges: (%d,%v) vs (%d,%v)",
						shards, step, id, a, aok, b, bok)
				}
				live = removeID(live, id)
				if aok {
					live = append(live, a)
				}
			}
			if plain.Len() != sharded.Len() {
				t.Fatalf("shards=%d step %d: Len diverges: %d vs %d", shards, step, plain.Len(), sharded.Len())
			}
		}
		if !reflect.DeepEqual(plain.Tuples(), sharded.Tuples()) {
			t.Fatalf("shards=%d: final tuples diverge", shards)
		}
		st, sst := plain.Stats(), sharded.Stats()
		if st.Count != sst.Count || st.AvgSeqLen != sst.AvgSeqLen {
			t.Fatalf("shards=%d: stats diverge: %+v vs %+v", shards, st, sst)
		}
	}
}

func removeID(ids []int, id int) []int {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

func randSeq(rng *rand.Rand) string {
	b := make([]byte, 3+rng.Intn(6))
	for i := range b {
		b[i] = byte('a' + rng.Intn(10))
	}
	return string(b)
}

// TestShardViewAtomicity: readers loading a ShardView never observe a
// cross-shard batch half-applied: every batch of batchSize rows sharing
// a marker attribute appears in full or not at all.
func TestShardViewAtomicity(t *testing.T) {
	const (
		shards    = 4
		batches   = 200
		batchSize = 8 // spread across shards with near certainty
	)
	sh := NewSharded("w", shards)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			rows := make([]InsertRow, batchSize)
			for i := range rows {
				rows[i] = InsertRow{Seq: fmt.Sprintf("b%dr%d", b, i), Attrs: map[string]string{"batch": fmt.Sprint(b)}}
			}
			sh.InsertBatch(rows)
		}
		stop.Store(true)
	}()
	readers := 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := sh.View()
				counts := map[string]int{}
				for _, tup := range v.Tuples() {
					counts[tup.Attrs["batch"]]++
				}
				for batch, n := range counts {
					if n != batchSize {
						errs <- fmt.Errorf("batch %s visible with %d of %d rows", batch, n, batchSize)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if sh.Len() != batches*batchSize {
		t.Fatalf("final Len = %d, want %d", sh.Len(), batches*batchSize)
	}
}

// TestShardedCrossShardUpdate: updating a row whose new sequence hashes
// to a different shard moves it, preserves the new id, and leaves no
// duplicate behind.
func TestShardedCrossShardUpdate(t *testing.T) {
	sh := NewSharded("w", 4)
	id := sh.Insert("alpha", map[string]string{"k": "v"})
	// Find a replacement sequence living on a different shard.
	repl := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("beta%d", i)
		if ShardOf(cand, 4) != ShardOf("alpha", 4) {
			repl = cand
			break
		}
	}
	if repl == "" {
		t.Fatal("no cross-shard replacement found")
	}
	newID, ok := sh.Update(id, repl, map[string]string{"k": "v2"})
	if !ok || newID == id {
		t.Fatalf("Update = (%d, %v)", newID, ok)
	}
	if _, ok := sh.Tuple(id); ok {
		t.Fatal("old row still visible after cross-shard update")
	}
	tup, ok := sh.Tuple(newID)
	if !ok || tup.Seq != repl || tup.Attrs["k"] != "v2" {
		t.Fatalf("new row = %+v, %v", tup, ok)
	}
	if sh.Len() != 1 {
		t.Fatalf("Len = %d after update, want 1", sh.Len())
	}
}

// TestShardedReserveAndInsertAt: reserved ids install rows at the
// reserved positions, and id-parity with the allocator is kept.
func TestShardedReserveAndInsertAt(t *testing.T) {
	sh := NewSharded("w", 3)
	sh.Insert("aaa", nil)
	ids := sh.ReserveIDs(2)
	if ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ReserveIDs = %v, want [1 2]", ids)
	}
	if !sh.InsertAt(ids[1], "ccc", nil) {
		t.Fatal("InsertAt(2) refused")
	}
	if !sh.InsertAt(ids[0], "bbb", nil) {
		t.Fatal("InsertAt(1) refused")
	}
	if sh.InsertAt(ids[0], "dup", nil) {
		t.Fatal("InsertAt accepted a duplicate id")
	}
	if next := sh.Insert("ddd", nil); next != 3 {
		t.Fatalf("allocator continued at %d, want 3", next)
	}
	got := sh.Tuples()
	want := []string{"aaa", "bbb", "ccc", "ddd"}
	for i, tup := range got {
		if tup.ID != i || tup.Seq != want[i] {
			t.Fatalf("tuple %d = %+v, want id=%d seq=%q", i, tup, i, want[i])
		}
	}
}

// TestShardedUpdateAtCollision: an UpdateAt whose replacement id is
// already taken — on any shard — must refuse without touching the old
// row (a half-applied cross-shard update would silently lose the row).
func TestShardedUpdateAtCollision(t *testing.T) {
	sh := NewSharded("w", 4)
	a := sh.Insert("alpha", nil)
	b := sh.Insert("bravo", nil)
	// Replacement sequence guaranteed to hash to a different shard than
	// alpha's, forcing the delete+insert path.
	repl := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("x%d", i)
		if ShardOf(cand, 4) != ShardOf("alpha", 4) {
			repl = cand
			break
		}
	}
	if sh.UpdateAt(a, b, repl, nil) {
		t.Fatal("UpdateAt accepted a taken replacement id")
	}
	if got, ok := sh.Tuple(a); !ok || got.Seq != "alpha" {
		t.Fatalf("old row damaged by refused update: (%+v, %v)", got, ok)
	}
	if sh.Len() != 2 {
		t.Fatalf("Len = %d after refused update, want 2", sh.Len())
	}
}

// TestInsertBatchAtDuplicates: explicit-id batch inserts skip ids that
// are already taken (in the arena or earlier in the batch) and report
// only the installed ids — on both layouts.
func TestInsertBatchAtDuplicates(t *testing.T) {
	plain := New("w")
	plain.Insert("taken", nil) // id 0
	got := plain.InsertBatchAt([]int{0, 5, 5, 7}, []InsertRow{
		{Seq: "a"}, {Seq: "b"}, {Seq: "c"}, {Seq: "d"},
	})
	if !reflect.DeepEqual(got, []int{5, 7}) {
		t.Fatalf("plain InsertBatchAt installed %v, want [5 7]", got)
	}
	if plain.Len() != 3 {
		t.Fatalf("plain Len = %d, want 3", plain.Len())
	}

	sh := NewSharded("w", 3)
	sh.Insert("taken", nil) // id 0
	got = sh.InsertBatchAt([]int{0, 5, 5, 7}, []InsertRow{
		{Seq: "a"}, {Seq: "b"}, {Seq: "c"}, {Seq: "d"},
	})
	if !reflect.DeepEqual(got, []int{5, 7}) {
		t.Fatalf("sharded InsertBatchAt installed %v, want [5 7]", got)
	}
	if sh.Len() != 3 {
		t.Fatalf("sharded Len = %d, want 3", sh.Len())
	}
	if next := sh.Insert("next", nil); next != 8 {
		t.Fatalf("allocator continued at %d, want 8", next)
	}
}

// TestShardedCompaction: forcing compaction drops tombstones across all
// shards without disturbing the visible contents.
func TestShardedCompaction(t *testing.T) {
	sh := NewSharded("w", 4)
	for i := 0; i < 100; i++ {
		sh.Insert(fmt.Sprintf("row%d", i), nil)
	}
	for i := 0; i < 100; i += 2 {
		if !sh.Delete(i) {
			t.Fatalf("delete(%d) failed", i)
		}
	}
	before := sh.Tuples()
	sh.Compact()
	if sh.Tombstones() != 0 {
		t.Fatalf("tombstones after Compact = %d", sh.Tombstones())
	}
	if !reflect.DeepEqual(before, sh.Tuples()) {
		t.Fatal("compaction changed visible tuples")
	}
}

// TestShardStats: per-shard counters add up to the relation totals.
func TestShardStats(t *testing.T) {
	sh := NewSharded("w", 4)
	for i := 0; i < 64; i++ {
		sh.Insert(fmt.Sprintf("val%d", i), nil)
	}
	sh.Delete(0)
	rows, dead := 0, 0
	for _, st := range sh.ShardStats() {
		rows += st.Rows
		dead += st.Tombstones
	}
	if rows != 63 || dead != 1 {
		t.Fatalf("ShardStats sums = (%d rows, %d tombstones), want (63, 1)", rows, dead)
	}
}
