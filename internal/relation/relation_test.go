package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/metric"
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

// loadLineByLine is the reference Load: one InsertOne per line, the
// first bad line ending the read.
func loadLineByLine(name string, text string) (*Relation, error) {
	r := New(name)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		var attrs map[string]string
		var vec metric.Vector
		for _, p := range parts[1:] {
			eq := strings.IndexByte(p, '=')
			if eq < 0 {
				return nil, fmt.Errorf("relation %s: line %d: bad attribute %q", name, line, p)
			}
			if p[:eq] == "vec" {
				v, err := metric.Parse(p[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("relation %s: line %d: %v", name, line, err)
				}
				vec = v
				continue
			}
			if attrs == nil {
				attrs = make(map[string]string)
			}
			attrs[p[:eq]] = p[eq+1:]
		}
		r.InsertOne(InsertRow{Seq: parts[0], Vec: vec, Attrs: attrs})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return r, nil
}

// dumpRelation renders every row of r, tombstoned or not, with its id,
// sequence, attributes and vector bits, and the relation's statistics.
func dumpRelation(r *Relation) string {
	var b strings.Builder
	h := r.head.Load()
	fmt.Fprintf(&b, "next %d live %d stats %+v alphabet %q\n", h.nextID, h.live, r.Stats(), r.Snapshot().Alphabet())
	for _, row := range h.rows {
		fmt.Fprintf(&b, "%d %q %v", row.ID, row.Seq, row.Vec == nil)
		for _, x := range row.Vec {
			fmt.Fprintf(&b, " %08x", math.Float32bits(x))
		}
		var keys []string
		for k := range row.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %q=%q", k, row.Attrs[k])
		}
		fmt.Fprintf(&b, " %v\n", row.Attrs == nil)
	}
	return b.String()
}

// loadText is a relation file of n lines: words with attributes,
// vector literals in canonical and spaced syntax, comments, blank
// lines and a CRLF ending.
func loadText(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			b.WriteString("# comment\tvec=[x]\n")
		case 1:
			b.WriteString("\n")
		case 2:
			fmt.Fprintf(&b, "w%d\tsrc=a=b\tdate=%d\r\n", rng.Intn(100), i)
		case 3, 4, 5:
			v := make(metric.Vector, 1+rng.Intn(8))
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			fmt.Fprintf(&b, "v%d\tvec=%s\tk=%d\n", i, metric.Format(v), i%3)
		case 6:
			fmt.Fprintf(&b, "\tvec=[ %g , -0 ,1e-3 ]\n", rng.Float64())
		default:
			fmt.Fprintf(&b, "%x\n", rng.Int63())
		}
	}
	return b.String()
}

// TestLoadMatchesLineByLine: Load yields the relation a line-by-line
// insert does — the same ids, sequences, attributes and vector bits —
// at GOMAXPROCS 1, 2 and 4, for files of words, vectors, comments and
// blank lines, a one-row file and an empty one.
func TestLoadMatchesLineByLine(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	texts := []string{"", "\n# only a comment\n", "one", "one\ttag=1\n", "\tvec=[1,2]", loadText(rng, 7), loadText(rng, 1000), loadText(rng, 4099)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, text := range texts {
		ref, err := loadLineByLine("t", text)
		if err != nil {
			t.Fatal(err)
		}
		want := dumpRelation(ref)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			r, err := Load("t", strings.NewReader(text))
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			if got := dumpRelation(r); got != want {
				t.Fatalf("GOMAXPROCS %d, %d bytes: Load differs from the line-by-line insert\ngot:\n%.2000s\nwant:\n%.2000s", procs, len(text), got, want)
			}
		}
	}
}

// TestLoadedRowsOwnTheirStrings: a loaded row's sequence and attribute
// keys and values are copies, not substrings of its input line, so the
// relation does not keep every line's text alive (a vector row's line
// holds the whole literal).
func TestLoadedRowsOwnTheirStrings(t *testing.T) {
	inside := func(s, line string) bool {
		if s == "" {
			return false
		}
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(line)))
		return p >= lo && p < lo+uintptr(len(line))
	}
	for _, line := range []string{"w1\tvec=[1, 2.5, -3]\tk=v", "w2\tsrc=a=b\tdate=7", "\tvec=[0.5]\tcluster=3", "word"} {
		line = strings.Clone(line) // a line of its own, as the scanner's are
		in, err := parseLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if inside(in.Seq, line) {
			t.Errorf("%q: Seq %q shares the line", line, in.Seq)
		}
		for k, v := range in.Attrs {
			if inside(k, line) || inside(v, line) {
				t.Errorf("%q: attribute %s=%s shares the line", line, k, v)
			}
		}
	}
}

// TestLoadFirstBadLine: with malformed lines in different chunks of a
// parallel load, Load reports the first, as the line-by-line read does.
func TestLoadFirstBadLine(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	lines := strings.Split(strings.TrimSuffix(loadText(rng, 400), "\n"), "\n")
	bad := func(at ...int) string {
		out := slices.Clone(lines)
		for i, l := range at {
			out[l] = []string{"w\tnoequals", "v\tvec=[1,NaN]", "v\tvec=1,2"}[i%3]
		}
		return strings.Join(out, "\n")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, text := range []string{bad(50, 300), bad(130, 150, 399), bad(299, 0), bad(399), bad(0)} {
		_, want := loadLineByLine("t", text)
		if want == nil {
			t.Fatal("the reference accepts the malformed file; the test lost its point")
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			if _, err := Load("t", strings.NewReader(text)); err == nil || err.Error() != want.Error() {
				t.Fatalf("GOMAXPROCS %d: Load reports %v, want %v", procs, err, want)
			}
		}
	}
	// A line past the reader's limit fails the read, after any bad line
	// before it.
	long := strings.Repeat("x", 1<<20+1)
	for _, text := range []string{bad(5) + "\n" + long, lines[0] + "\n" + long} {
		_, want := loadLineByLine("t", text)
		if _, err := Load("t", strings.NewReader(text)); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Load reports %v, want %v", err, want)
		}
	}
}
