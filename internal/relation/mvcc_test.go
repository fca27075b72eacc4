package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestDeleteAndUpdateVisibility(t *testing.T) {
	r := New("m")
	a := r.Insert("aaa", nil)
	b := r.Insert("bbb", map[string]string{"k": "1"})

	if !r.Delete(a) {
		t.Fatal("Delete(a) = false")
	}
	if r.Delete(a) {
		t.Fatal("double Delete(a) = true")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if _, ok := r.Tuple(a); ok {
		t.Error("deleted tuple still visible")
	}

	nb, ok := r.Update(b, "ccc", map[string]string{"k": "2"})
	if !ok || nb == b {
		t.Fatalf("Update = %d,%v", nb, ok)
	}
	if _, ok := r.Tuple(b); ok {
		t.Error("old version visible after update")
	}
	tp, ok := r.Tuple(nb)
	if !ok || tp.Seq != "ccc" || tp.Attrs["k"] != "2" {
		t.Errorf("updated tuple = %+v, %v", tp, ok)
	}
	if _, ok := r.Update(b, "x", nil); ok {
		t.Error("Update of dead id succeeded")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := New("iso")
	for i := 0; i < 10; i++ {
		r.Insert(fmt.Sprintf("row%02d", i), nil)
	}
	snap := r.Snapshot()
	before := snap.Tuples()

	// Mutate heavily after the snapshot.
	r.Delete(0)
	r.Update(1, "changed", nil)
	for i := 0; i < 5; i++ {
		r.Insert("new", nil)
	}
	r.Compact()

	if got := snap.Tuples(); !reflect.DeepEqual(got, before) {
		t.Fatalf("snapshot drifted:\n got %v\nwant %v", got, before)
	}
	if snap.Len() != 10 {
		t.Errorf("snapshot Len = %d, want 10", snap.Len())
	}
	if _, ok := snap.Tuple(0); !ok {
		t.Error("snapshot lost row deleted after it")
	}
	if cur, _ := r.Tuple(1); cur.Seq == "row01" {
		t.Error("current view did not see the update")
	}
	// Access through the old snapshot's length view still answers
	// pre-mutation.
	vis := 0
	bands := snap.LengthView().Bands(len("row00"))
	for b, ok := bands.Next(); ok; b, ok = bands.Next() {
		for _, e := range b.Ents {
			if e.Seq == "row00" && snap.VisibleRow(e.Row) {
				vis++
			}
		}
	}
	if vis != 1 {
		t.Errorf("snapshot index sees %d visible matches for row00, want 1", vis)
	}
}

func TestCompactionPolicyAndCorrectness(t *testing.T) {
	r := New("c")
	const n = 400
	for i := 0; i < n; i++ {
		r.Insert(fmt.Sprintf("w%04d", i), nil)
	}
	r.BKTree() // build so compaction has to rebuild it
	for i := 0; i < n/2; i++ {
		r.Delete(i)
	}
	// The policy must have fired along the way, so the arena can never
	// carry more than the trigger threshold of tombstones.
	if got := r.Tombstones(); got >= 100 {
		t.Fatalf("Tombstones = %d after heavy delete; compaction policy never fired", got)
	}
	r.Compact()
	if got := r.Tombstones(); got != 0 {
		t.Fatalf("Tombstones = %d after forced compaction, want 0", got)
	}
	if r.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", r.Len(), n/2)
	}
	// Rebuilt index contains exactly the survivors.
	if r.BKTree().Len() != n/2 {
		t.Fatalf("compacted BK-tree Len = %d, want %d", r.BKTree().Len(), n/2)
	}
	st := r.Stats()
	if st.Count != n/2 || st.MaxSeqLen != 5 {
		t.Errorf("Stats after compaction = %+v", st)
	}
}

func TestIncrementalStatsMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New("st")
	var ids []int
	for op := 0; op < 2000; op++ {
		switch {
		case len(ids) == 0 || rng.Intn(10) < 6:
			b := make([]byte, 1+rng.Intn(12))
			for j := range b {
				b[j] = byte('a' + rng.Intn(9))
			}
			ids = append(ids, r.Insert(string(b), nil))
		case rng.Intn(2) == 0:
			i := rng.Intn(len(ids))
			if r.Delete(ids[i]) {
				ids = append(ids[:i], ids[i+1:]...)
			}
		default:
			i := rng.Intn(len(ids))
			if nid, ok := r.Update(ids[i], "zz", nil); ok {
				ids[i] = nid
			}
		}
	}
	st := r.Stats()
	// Recompute from visible tuples.
	var want Stats
	var total int
	var seen [256]bool
	ts := r.Tuples()
	want.Count = len(ts)
	for _, tp := range ts {
		total += len(tp.Seq)
		for i := 0; i < len(tp.Seq); i++ {
			seen[tp.Seq[i]] = true
		}
	}
	if want.Count > 0 {
		want.AvgSeqLen = float64(total) / float64(want.Count)
	}
	var alphabet []byte
	for c, s := range seen {
		if s {
			alphabet = append(alphabet, byte(c))
		}
	}
	if st.Count != want.Count || st.AvgSeqLen != want.AvgSeqLen {
		t.Fatalf("incremental stats %+v != recomputed %+v", st, want)
	}
	if got := r.Snapshot().Alphabet(); got != string(alphabet) {
		t.Fatalf("incremental alphabet %q != recomputed %q", got, alphabet)
	}
	if st.MaxSeqLen < want.MaxSeqLen {
		t.Fatalf("MaxSeqLen %d underestimates true %d", st.MaxSeqLen, want.MaxSeqLen)
	}
}

func TestInsertBatchAtomicVisibility(t *testing.T) {
	r := New("ib")
	r.Insert("pre", nil)
	r.BKTree()
	before := r.Snapshot()
	rows := make([]InsertRow, 50)
	for i := range rows {
		rows[i] = InsertRow{Seq: fmt.Sprintf("b%03d", i)}
	}
	ids := r.InsertBatch(rows)
	if len(ids) != 50 || ids[0] != 1 || ids[49] != 50 {
		t.Fatalf("batch ids = %v", ids)
	}
	// One commit: epoch moved by exactly 1 and the whole batch is
	// visible to a post-commit snapshot, none of it to a pre-commit one.
	after := r.Snapshot()
	if after.Epoch() != before.Epoch()+1 {
		t.Fatalf("epoch %d -> %d, want one commit", before.Epoch(), after.Epoch())
	}
	if before.Len() != 1 || after.Len() != 51 {
		t.Fatalf("Len before/after = %d/%d", before.Len(), after.Len())
	}
	if len(r.BKTree().Range("b007", 0)) != 1 {
		t.Error("online index missed a batched row")
	}
	if r.InsertBatch(nil) != nil {
		t.Error("empty batch committed something")
	}
}

// TestReadersNeverBlockWriters runs concurrent snapshot readers against
// a committing writer; under -race this pins the lock-free read path,
// and each reader checks its snapshot stays frozen while commits land.
func TestReadersNeverBlockWriters(t *testing.T) {
	r := New("rw")
	for i := 0; i < 200; i++ {
		r.Insert(fmt.Sprintf("base%04d", i), nil)
	}
	r.BKTree()
	r.Trie()
	r.LengthView()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				want := snap.Len()
				got := 0
				c := snap.Shard(0, 1)
				for _, ok := c.Next(); ok; _, ok = c.Next() {
					got++
				}
				if got != want {
					t.Errorf("snapshot scan saw %d rows, Len says %d", got, want)
					return
				}
				bands := snap.LengthView().Bands(len("base0001"))
				b, _ := bands.Next()
				for _, e := range b.Ents {
					if _, ok := snap.Tuple(e.Row.ID); ok != snap.VisibleRow(e.Row) {
						t.Error("Tuple and VisibleRow disagree")
						return
					}
				}
			}
		}(w)
	}
	ids := make([]int, 0, 200)
	for i := 0; i < 200; i++ {
		ids = append(ids, i)
	}
	for i := 0; i < 600; i++ {
		switch i % 3 {
		case 0:
			ids = append(ids, r.Insert(fmt.Sprintf("live%04d", i), nil))
		case 1:
			r.Delete(ids[i%len(ids)])
		case 2:
			if nid, ok := r.Update(ids[(i*7)%len(ids)], "upd", nil); ok {
				ids = append(ids, nid)
			}
		}
	}
	close(stop)
	wg.Wait()
}
