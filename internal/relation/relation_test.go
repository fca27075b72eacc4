package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestInsertAndTuple(t *testing.T) {
	r := New("words")
	id0 := r.Insert("hello", nil)
	id1 := r.Insert("world", map[string]string{"lang": "en"})
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d", id0, id1)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	tp, ok := r.Tuple(1)
	if !ok || tp.Seq != "world" || tp.Attrs["lang"] != "en" {
		t.Errorf("Tuple(1) = %+v, %v", tp, ok)
	}
	if _, ok := r.Tuple(5); ok {
		t.Error("Tuple(5) ok on 2-tuple relation")
	}
	if _, ok := r.Tuple(-1); ok {
		t.Error("Tuple(-1) ok")
	}
}

func TestTupleAttr(t *testing.T) {
	tp := Tuple{ID: 7, Seq: "abc", Attrs: map[string]string{"x": "1"}}
	if tp.Attr("id") != "7" || tp.Attr("seq") != "abc" || tp.Attr("x") != "1" || tp.Attr("nope") != "" {
		t.Errorf("Attr wrong: %q %q %q %q", tp.Attr("id"), tp.Attr("seq"), tp.Attr("x"), tp.Attr("nope"))
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	r := New("rt")
	r.Insert("abc", nil)
	r.Insert("def", map[string]string{"b": "2", "a": "1"})
	var buf bytes.Buffer
	if err := r.Store(&buf); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got, err := Load("rt", &buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	tp, _ := got.Tuple(1)
	if tp.Seq != "def" || tp.Attrs["a"] != "1" || tp.Attrs["b"] != "2" {
		t.Errorf("round trip tuple = %+v", tp)
	}
}

func TestStoreRejectsTabs(t *testing.T) {
	r := New("bad")
	r.Insert("a\tb", nil)
	if err := r.Store(&bytes.Buffer{}); err == nil {
		t.Fatal("Store accepted a tab in a sequence")
	}
}

func TestLoadSkipsCommentsAndBlank(t *testing.T) {
	src := "# header\n\nabc\n# mid\ndef\tk=v\n"
	r, err := Load("x", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestLoadBadAttr(t *testing.T) {
	if _, err := Load("x", strings.NewReader("abc\tnoequals\n")); err == nil {
		t.Fatal("Load accepted a malformed attribute")
	}
}

func TestIndexesAgree(t *testing.T) {
	r := New("ix")
	for _, s := range []string{"cat", "cart", "bat", "hat", "chart", "act"} {
		r.Insert(s, nil)
	}
	bk := r.BKTree().Range("cat", 1)
	tr := r.Trie().Range("cat", 1)
	if len(bk) != len(tr) {
		t.Fatalf("bk=%d trie=%d matches", len(bk), len(tr))
	}
	if len(bk) != 4 { // cat, cart, bat, hat
		t.Errorf("Range(cat,1) = %d matches, want 4: %v", len(bk), bk)
	}
	// Index caching: same pointer on second call.
	if r.BKTree() != r.BKTree() {
		t.Error("BKTree rebuilt on second call")
	}
}

func TestInsertMaintainsIndexes(t *testing.T) {
	r := New("inv")
	r.Insert("aaa", nil)
	bk1 := r.BKTree()
	tr1 := r.Trie()
	r.Insert("bbb", nil)
	if bk2 := r.BKTree(); bk2 != bk1 {
		t.Error("insert rebuilt the BK-tree instead of maintaining it online")
	}
	if len(r.BKTree().Range("bbb", 0)) != 1 {
		t.Error("online-maintained BK-tree misses new tuple")
	}
	if tr2 := r.Trie(); tr2 != tr1 {
		t.Error("insert rebuilt the trie instead of maintaining it online")
	}
	if len(r.Trie().Range("bbb", 0)) != 1 {
		t.Error("online-maintained trie misses new tuple")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.Add(New("b"))
	c.Add(New("a"))
	if _, ok := c.Lookup("a"); !ok {
		t.Error("Lookup(a) missed")
	}
	if _, ok := c.Lookup("zzz"); ok {
		t.Error("Lookup(zzz) hit")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	// Replacement.
	r := New("a")
	r.Insert("x", nil)
	c.Add(r)
	got, _ := c.Lookup("a")
	if got.Len() != 1 {
		t.Error("Add did not replace")
	}
}

func TestEntries(t *testing.T) {
	r := New("e")
	r.Insert("x", nil)
	r.Insert("y", nil)
	es := r.Entries()
	if len(es) != 2 || es[0].S != "x" || es[1].ID != 1 {
		t.Errorf("Entries = %v", es)
	}
}
