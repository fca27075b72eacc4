package index

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/editdp"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// dictionary builds a deterministic random dictionary with planted
// near-duplicates so range queries have non-trivial answers.
func dictionary(seed int64, n int) []Entry {
	a := seq.MustAlphabet("abcdef")
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		var s string
		if i > 0 && rng.Intn(4) == 0 {
			s = a.RandomEdits(rng, entries[rng.Intn(i)].S, 1+rng.Intn(2))
		} else {
			s = a.Random(rng, 3+rng.Intn(10))
		}
		entries = append(entries, Entry{ID: i, S: s})
	}
	return entries
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
}

func assertSameMatches(t *testing.T, name string, got, want []Match) {
	t.Helper()
	sortMatches(got)
	sortMatches(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: match %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestAllStrategiesAgree is the core soundness test: every index
// strategy must return exactly the scan answer.
func TestAllStrategiesAgree(t *testing.T) {
	entries := dictionary(1, 800)
	bk := NewBKTree()
	tr := NewTrie()
	li := NewLengthIndex()
	qg := NewQGramIndex(2)
	for _, e := range entries {
		bk.Insert(e.ID, e.S)
		tr.Insert(e.ID, e.S)
		li.Insert(e.ID, e.S)
		qg.Insert(e.ID, e.S)
	}
	a := seq.MustAlphabet("abcdef")
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		var query string
		if trial%2 == 0 {
			query = entries[rng.Intn(len(entries))].S
		} else {
			query = a.Random(rng, 3+rng.Intn(10))
		}
		for k := 0; k <= 3; k++ {
			want, _ := Scan(entries, query, float64(k), UnitVerifier)
			got := bk.Range(query, k)
			assertSameMatches(t, "bktree", got, want)
			got = tr.Range(query, k)
			assertSameMatches(t, "trie", got, want)
			got, _ = li.Range(query, float64(k), UnitVerifier)
			assertSameMatches(t, "length", got, want)
			got, _ = qg.Range(query, float64(k), UnitVerifier)
			assertSameMatches(t, "qgram", got, want)
		}
	}
}

func TestBKTreeEmpty(t *testing.T) {
	bk := NewBKTree()
	if got := bk.Range("abc", 2); got != nil {
		t.Errorf("empty tree Range = %v", got)
	}
	if bk.Len() != 0 {
		t.Errorf("Len = %d", bk.Len())
	}
}

func TestBKTreeDuplicates(t *testing.T) {
	bk := NewBKTree()
	bk.Insert(1, "abc")
	bk.Insert(2, "abc")
	bk.Insert(3, "abd")
	got := bk.Range("abc", 0)
	if len(got) != 2 {
		t.Fatalf("duplicates: %d matches, want 2", len(got))
	}
	if bk.Len() != 3 {
		t.Errorf("Len = %d, want 3", bk.Len())
	}
}

func TestBKTreePrunes(t *testing.T) {
	entries := dictionary(3, 2000)
	bk := NewBKTree()
	for _, e := range entries {
		bk.Insert(e.ID, e.S)
	}
	_, st := bk.RangeStats(entries[7].S, 1)
	if st.Verifications >= len(entries) {
		t.Errorf("BK-tree did not prune: %d verifications for %d entries", st.Verifications, len(entries))
	}
}

func TestTrieContains(t *testing.T) {
	tr := NewTrie()
	tr.Insert(1, "abc")
	tr.Insert(2, "ab")
	if !tr.Contains("abc") || !tr.Contains("ab") {
		t.Error("Contains misses inserted strings")
	}
	if tr.Contains("a") || tr.Contains("abcd") || tr.Contains("zzz") {
		t.Error("Contains false positives")
	}
}

func TestTrieEmptyString(t *testing.T) {
	tr := NewTrie()
	tr.Insert(1, "")
	got := tr.Range("", 0)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("empty-string entry: %v", got)
	}
	got = tr.Range("a", 1)
	if len(got) != 1 {
		t.Fatalf("empty string within 1 of \"a\": %v", got)
	}
}

func TestTrieNegativeRadius(t *testing.T) {
	tr := NewTrie()
	tr.Insert(1, "abc")
	if got := tr.Range("abc", -1); got != nil {
		t.Errorf("negative radius: %v", got)
	}
	bk := NewBKTree()
	bk.Insert(1, "abc")
	if got := bk.Range("abc", -1); got != nil {
		t.Errorf("negative radius: %v", got)
	}
}

func TestQGramShortStrings(t *testing.T) {
	qg := NewQGramIndex(3)
	qg.Insert(1, "ab") // shorter than q
	qg.Insert(2, "abcde")
	got, _ := qg.Range("ab", 0, UnitVerifier)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("short string lost: %v", got)
	}
}

func TestQGramPrunes(t *testing.T) {
	entries := dictionary(5, 3000)
	qg := NewQGramIndex(2)
	for _, e := range entries {
		qg.Insert(e.ID, e.S)
	}
	query := entries[11].S
	if len(query) < 7 {
		for _, e := range entries {
			if len(e.S) >= 9 {
				query = e.S
				break
			}
		}
	}
	_, st := qg.Range(query, 1, UnitVerifier)
	if st.Verifications >= len(entries)/2 {
		t.Errorf("q-gram filter did not prune: %d verifications for %d entries", st.Verifications, len(entries))
	}
}

func TestLengthIndexPrunes(t *testing.T) {
	li := NewLengthIndex()
	li.Insert(1, "a")
	li.Insert(2, "abcdefgh")
	_, st := li.Range("ab", 1, UnitVerifier)
	if st.Verifications != 1 {
		t.Errorf("length filter verified %d entries, want 1", st.Verifications)
	}
}

func TestCalcVerifierDirection(t *testing.T) {
	// Deletion-only rules: entry "ab" reduces to query "a", but entry
	// "a" cannot grow into query "ab".
	rs := rewrite.MustRuleSet("del", []rewrite.Rule{rewrite.Delete('b', 1)})
	c, err := editdp.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	v := CalcVerifier(c)
	if _, ok := v("a", "ab", 1); !ok {
		t.Error("entry ab should reduce to query a within 1")
	}
	if _, ok := v("ab", "a", 5); ok {
		t.Error("entry a cannot grow into query ab under deletions only")
	}
}

func TestScanWithWeightedVerifier(t *testing.T) {
	rs := rewrite.MustRuleSet("w", []rewrite.Rule{
		rewrite.Subst('a', 'b', 0.25), rewrite.Subst('b', 'a', 0.25),
	})
	c, err := editdp.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{1, "aa"}, {2, "ab"}, {3, "bb"}, {4, "aaa"}}
	got, _ := Scan(entries, "aa", 0.5, CalcVerifier(c))
	sortMatches(got)
	if len(got) != 3 {
		t.Fatalf("weighted scan: %d matches, want 3 (aa@0, ab@.25, bb@.5): %v", len(got), got)
	}
	if got[0].Dist != 0 || got[1].Dist != 0.25 || got[2].Dist != 0.5 {
		t.Errorf("distances = %v", got)
	}
}

// sigBound is the band walk's signature bound on the unit edit distance
// from x to y: x's capped surplus over y plus y's excess length.
func sigBound(x, y string) int {
	return NewByteSig(x).Excess(NewByteSig(y)) + max(0, len(y)-len(x))
}

// classCounts counts the bytes of s in the signature's sixteen classes.
func classCounts(s string) (n [16]int) {
	for i := 0; i < len(s); i++ {
		n[s[i]&15]++
	}
	return n
}

// nibbleBound is the bag-distance bound the thermometer code replaced:
// sixteen class counts saturating at 15, and the larger of the summed
// surplus and the summed deficit.
func nibbleBound(x, y string) int {
	cx, cy := classCounts(x), classCounts(y)
	pos, neg := 0, 0
	for k := range cx {
		d := min(cx[k], 15) - min(cy[k], 15)
		if d > 0 {
			pos += d
		} else {
			neg -= d
		}
	}
	return max(pos, neg)
}

// belowCap reports whether no class of s counts above the signature's
// cap, where sigBound equals nibbleBound.
func belowCap(s string) bool {
	for _, c := range classCounts(s) {
		if c > sigCap {
			return false
		}
	}
	return true
}

// checkSigBound fails t if the signature bound exceeds the unit edit
// distance either way round, or differs from the old nibble bound where
// neither string counts a class above the cap.
func checkSigBound(t testing.TB, x, y string) {
	t.Helper()
	d := editdp.Levenshtein(x, y)
	for _, p := range [][2]string{{x, y}, {y, x}} {
		lb := sigBound(p[0], p[1])
		if lb > d || lb < 0 {
			t.Fatalf("sigBound(%q, %q) = %d, distance %d", p[0], p[1], lb, d)
		}
		if belowCap(x) && belowCap(y) {
			if old := nibbleBound(p[0], p[1]); lb != old {
				t.Fatalf("sigBound(%q, %q) = %d below the cap, nibble bound %d", p[0], p[1], lb, old)
			}
		}
	}
}

// TestByteSigLowerBound: the signature bound never exceeds the true
// unit edit distance — over near and unrelated pairs, bytes that share
// a class (c and c+16), non-ASCII bytes and class counts on both sides
// of the cap — it equals the old nibble bound below the cap, and it is
// exact where it can be: disjoint bags.
func TestByteSigLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randFrom := func(n int, alpha string) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	const lower = "abcdefghijklmnopqrstuvwxyz"
	a := seq.MustAlphabet(lower)
	for i := 0; i < 20000; i++ {
		x := randFrom(rng.Intn(40), lower[:1+rng.Intn(26)])
		y := randFrom(rng.Intn(40), lower[:1+rng.Intn(26)])
		if i%2 == 0 {
			y = a.RandomEdits(rng, x, rng.Intn(4))
		}
		if i%7 == 0 {
			x, y = strings.Repeat(x, 5), strings.Repeat(y, 5)
		}
		checkSigBound(t, x, y)
	}
	// Bytes sharing a class: 'a', 'q' and 'A' all fall in class 1.
	for i := 0; i < 5000; i++ {
		checkSigBound(t, randFrom(rng.Intn(20), "aqAbr"), randFrom(rng.Intn(20), "aqAbr"))
	}
	// Arbitrary bytes, non-ASCII included.
	var all [256]byte
	for i := range all {
		all[i] = byte(i)
	}
	for i := 0; i < 5000; i++ {
		checkSigBound(t, randFrom(rng.Intn(30), string(all[:])), randFrom(rng.Intn(30), string(all[:])))
	}
	// Class counts 0..40 on either side, with a little noise.
	for i := 0; i <= 40; i++ {
		for j := 0; j <= 40; j++ {
			x, y := strings.Repeat("e", i), strings.Repeat("e", j)
			checkSigBound(t, x, y)
			checkSigBound(t, x+randFrom(rng.Intn(4), lower), randFrom(rng.Intn(4), lower)+y)
		}
	}
	for _, c := range []struct {
		x, y string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "cab", 0},
		{"aaaa", "bbbbbb", 6},
		{"abcd", "", 4},
		{"", "abcd", 4},
		{"a", "q", 0}, // 'a' and 'q' share class 1
		{strings.Repeat("a", 40), strings.Repeat("a", 15), 0}, // both saturate
		{strings.Repeat("a", 40), strings.Repeat("b", 40), 8}, // saturated surplus
		{strings.Repeat("a", 12), strings.Repeat("a", 3), 5},  // the surplus caps at 8 - 3
		{strings.Repeat("a", 3), strings.Repeat("a", 12), 9},  // the excess length does not
		{"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f", "", 16},
	} {
		if got := sigBound(c.x, c.y); got != c.want {
			t.Errorf("sigBound(%q, %q) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

// FuzzByteSigBound: on arbitrary byte pairs the signature bound never
// exceeds the unit edit distance, and below the cap it equals the old
// nibble bound.
func FuzzByteSigBound(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add(strings.Repeat("a", 12), "aq\xff")
	f.Add("\x00\x10\x20", "\xf0")
	f.Fuzz(func(t *testing.T, x, y string) {
		if len(x) > 512 || len(y) > 512 {
			t.Skip("the quadratic reference distance")
		}
		checkSigBound(t, x, y)
	})
}

// TestNextWithin: the scan kernel returns the first index at or after
// from whose excess is within the threshold, and len(sigs) past the
// last.
func TestNextWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := make([]string, 300)
	sigs := make([]ByteSig, len(words))
	for i := range words {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte('a' + rng.Intn(20))
		}
		words[i], sigs[i] = string(b), NewByteSig(string(b))
	}
	for k := 0; k < 200; k++ {
		q := NewByteSig(words[rng.Intn(len(words))])
		thr, from := rng.Intn(6), rng.Intn(len(sigs)+1)
		want := from
		for want < len(sigs) && q.Excess(sigs[want]) > thr {
			want++
		}
		if got := NextWithin(sigs, q, thr, from); got != want {
			t.Fatalf("NextWithin(thr %d, from %d) = %d, want %d", thr, from, got, want)
		}
	}
}
