package relation

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/index"
)

// TestFindArenaPosition: find tries the arena position id-rows[0].ID
// first and must agree with a plain search whether or not that guess
// lands — dense arenas, arenas with compacted gaps, ids off either end,
// and the empty arena.
func TestFindArenaPosition(t *testing.T) {
	check := func(t *testing.T, r *Relation, lo, hi int) {
		t.Helper()
		h := r.head.Load()
		byID := map[int]*Row{}
		for _, row := range h.rows {
			byID[row.ID] = row
		}
		for id := lo; id <= hi; id++ {
			if got := h.find(id); got != byID[id] {
				t.Fatalf("find(%d) = %v, want %v (arena of %d rows)", id, got, byID[id], len(h.rows))
			}
		}
	}
	t.Run("empty", func(t *testing.T) { check(t, New("e"), -2, 2) })
	t.Run("dense", func(t *testing.T) {
		r := New("d")
		for i := 0; i < 50; i++ {
			r.Insert(fmt.Sprint(i), nil)
		}
		check(t, r, -3, 55)
	})
	t.Run("dense from a later id", func(t *testing.T) {
		r := Rebuild("o", []Tuple{{ID: 7, Seq: "a"}, {ID: 8, Seq: "b"}, {ID: 9, Seq: "c"}}, 0)
		check(t, r, 0, 12)
	})
	t.Run("gaps", func(t *testing.T) {
		r := New("g")
		for i := 0; i < 200; i++ {
			r.Insert(fmt.Sprint(i), nil)
		}
		for i := 0; i < 200; i++ {
			if i%3 != 0 || i > 150 {
				r.Delete(i) // crosses the compaction policy on the way
			}
		}
		r.Compact()
		for i := 0; i < 5; i++ {
			r.Insert("tail", nil)
		}
		if h := r.head.Load(); len(h.rows) == h.rows[len(h.rows)-1].ID-h.rows[0].ID+1 {
			t.Fatal("arena has no gaps; the test lost its point")
		}
		check(t, r, -3, 210)
	})
}

// viewIDs scans a snapshot's length view the way NEAREST does and
// returns the visible ids band by band.
func viewIDs(s *Snapshot, qlen int) (diffs []int, ids [][]int) {
	bands := s.LengthView().Bands(qlen)
	for b, ok := bands.Next(); ok; b, ok = bands.Next() {
		diff := max(b.Len-qlen, qlen-b.Len)
		if len(b.Sigs) != len(b.Ents) {
			panic(fmt.Sprintf("band of length %d has %d entries and %d signatures", b.Len, len(b.Ents), len(b.Sigs)))
		}
		var band []int
		for i, e := range b.Ents {
			if e.Seq != e.Row.Seq || len(e.Seq) != b.Len || b.Sigs[i] != index.NewByteSig(e.Seq) {
				panic(fmt.Sprintf("entry %q in band %d of origin %d", e.Seq, diff, qlen))
			}
			if s.VisibleRow(e.Row) {
				band = append(band, e.Row.ID)
			}
		}
		diffs = append(diffs, diff)
		ids = append(ids, band)
	}
	return diffs, ids
}

func TestLengthViewBandsAndVisibility(t *testing.T) {
	r := New("v")
	for _, s := range []string{"aaaa", "bb", "cccccc", "dddd", "", "eeeeeeeee", "ff"} {
		r.Insert(s, nil) // ids 0..6, lengths 4 2 6 4 0 9 2
	}
	r.LengthView()
	old := r.Snapshot()
	diffs, ids := viewIDs(old, 4)
	if want := []int{0, 2, 2, 4, 5}; !reflect.DeepEqual(diffs, want) {
		t.Fatalf("band distances from length 4 = %v, want %v", diffs, want)
	}
	if want := [][]int{{0, 3}, {1, 6}, {2}, {4}, {5}}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("bands from length 4 = %v, want %v", ids, want)
	}
	if diffs, _ := viewIDs(old, 100); !sort.IntsAreSorted(diffs) || len(diffs) != 5 || diffs[0] != 91 {
		t.Fatalf("band distances from length 100 = %v", diffs)
	}

	// Later commits extend the shared view; the old snapshot must keep
	// seeing exactly its own rows, a new one the new state.
	r.Delete(3)
	nid, _ := r.Update(1, "bbbb", nil)
	r.Insert("gggg", nil)
	if _, ids := viewIDs(old, 4); !reflect.DeepEqual(ids, [][]int{{0, 3}, {1, 6}, {2}, {4}, {5}}) {
		t.Fatalf("old snapshot sees %v after later commits", ids)
	}
	cur := r.Snapshot()
	if cur.LengthView() != old.LengthView() {
		t.Fatal("commits replaced the shared view instead of extending it")
	}
	if _, ids := viewIDs(cur, 4); !reflect.DeepEqual(ids, [][]int{{0, nid, nid + 1}, {6}, {2}, {4}, {5}}) {
		t.Fatalf("current snapshot sees %v", ids)
	}

	// Compaction rebuilds the view from the survivors; snapshots on
	// either side still see their own rows.
	r.Compact()
	after := r.Snapshot()
	if after.LengthView() == cur.LengthView() {
		t.Fatal("compaction kept the old view")
	}
	for _, s := range []*Snapshot{cur, after} {
		if _, ids := viewIDs(s, 4); !reflect.DeepEqual(ids, [][]int{{0, nid, nid + 1}, {6}, {2}, {4}, {5}}) {
			t.Fatalf("snapshot sees %v across compaction", ids)
		}
	}

	// A snapshot whose head carries no view builds a private one.
	fresh := Rebuild("w", after.Tuples(), 0).Snapshot()
	if _, ids := viewIDs(fresh, 4); !reflect.DeepEqual(ids, [][]int{{0, nid, nid + 1}, {6}, {2}, {4}, {5}}) {
		t.Fatalf("private view sees %v", ids)
	}
}
