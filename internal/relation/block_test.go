package relation

import (
	"fmt"
	"reflect"
	"testing"
)

// drainBlocks pulls every block of a shard cursor at the given block
// size and flattens the result.
func drainBlocks(c *Cursor, size int) []Tuple {
	var out []Tuple
	var blk Block
	for {
		n := c.NextBlock(&blk, size)
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			out = append(out, Tuple{ID: blk.IDs[i], Seq: blk.Seqs[i], Attrs: blk.Attrs[i]})
		}
	}
}

// TestCursorNextBlockMatchesNext: block iteration must reproduce the
// row cursor's visible-tuple stream exactly, at every block size, both
// on the all-live fast path and with tombstones in the arena.
func TestCursorNextBlockMatchesNext(t *testing.T) {
	r := New("t")
	for i := 0; i < 100; i++ {
		r.Insert(fmt.Sprintf("seq%03d", i), map[string]string{"tag": fmt.Sprint(i % 3)})
	}
	check := func(label string) {
		t.Helper()
		want := r.Tuples()
		for _, size := range []int{1, 3, 7, 64, 1000} {
			got := drainBlocks(r.Snapshot().Shard(0, 1), size)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: block size %d diverges from Tuples (%d vs %d rows)", label, size, len(got), len(want))
			}
		}
		// Shard concatenation must reproduce the serial order too, at
		// every shard count.
		snap := r.Snapshot()
		for _, n := range []int{1, 2, 3, 4, 8} {
			var cat []Tuple
			for i := 0; i < n; i++ {
				cat = append(cat, drainBlocks(snap.Shard(i, n), 8)...)
			}
			if !reflect.DeepEqual(cat, want) {
				t.Fatalf("%s: %d concatenated shards diverge from Tuples", label, n)
			}
		}
	}
	check("all-live")

	// Tombstone a third of the rows: the per-row visibility path.
	for i := 0; i < 100; i += 3 {
		r.Delete(i)
	}
	if r.Tombstones() == 0 {
		t.Skip("compaction removed every tombstone; per-row path not reachable")
	}
	check("with tombstones")
}

// TestCursorNextBlockSnapshotIsolation: a block cursor over an old
// snapshot must not see rows inserted or deleted after the snapshot,
// even while blocks are being pulled.
func TestCursorNextBlockSnapshotIsolation(t *testing.T) {
	r := New("t")
	for i := 0; i < 10; i++ {
		r.Insert(fmt.Sprintf("s%d", i), nil)
	}
	snap := r.Snapshot()
	cur := snap.Shard(0, 1)
	var blk Block
	if n := cur.NextBlock(&blk, 4); n != 4 {
		t.Fatalf("first block = %d rows", n)
	}
	r.Insert("late", nil)
	r.Delete(7)
	rest := drainBlocks(cur, 4)
	if len(rest) != 6 {
		t.Fatalf("remaining rows = %d, want 6 (snapshot isolation broken)", len(rest))
	}
	for _, tup := range rest {
		if tup.Seq == "late" {
			t.Fatal("block cursor saw a post-snapshot insert")
		}
	}
	found := false
	for _, tup := range rest {
		if tup.ID == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("block cursor lost a row deleted after the snapshot")
	}
}
