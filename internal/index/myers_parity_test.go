package index

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/editdp"
)

// buildCorpus returns a word list with heavy prefix sharing, duplicate
// strings, a few very long (>64 byte) entries and non-ASCII bytes — the
// shapes that exercise every kernel branch.
func buildCorpus(rng *rand.Rand, n int) []string {
	stems := []string{"color", "colour", "colon", "cool", "kernel", "k\xffrnel", ""}
	words := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w := stems[rng.Intn(len(stems))]
		for j := rng.Intn(5); j > 0; j-- {
			w += string(rune('a' + rng.Intn(4)))
		}
		if rng.Intn(20) == 0 {
			w = strings.Repeat(w+"x", 9) // push past 64 bytes
		}
		words = append(words, w)
	}
	return words
}

func bruteRange(words []string, query string, k int) []Match {
	var out []Match
	for id, w := range words {
		if d := editdp.Levenshtein(query, w); d <= k {
			out = append(out, Match{ID: id, S: w, Dist: float64(d)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func bruteNearestK(words []string, query string, k int) []Match {
	var best []Match
	for id, w := range words {
		d := editdp.Levenshtein(query, w)
		best = PushBestK(best, Match{ID: id, S: w, Dist: float64(d)}, k)
	}
	return best
}

func sortedByID(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestIndexMyersParity pins that BK-tree and trie traversals return
// exactly the brute-force match sets, so the length-rejection and
// budget-bounded paths cannot drop or reorder a single (dist, id) pair.
func TestIndexMyersParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := buildCorpus(rng, 400)

	queries := []string{"color", "colouring", "k\xffrnel", "", "zzzz",
		strings.Repeat("colorx", 15), // >64 bytes: block kernel / scalar trie
	}
	bk := NewBKTree()
	tr := NewTrie()
	for id, w := range words {
		bk.Insert(id, w)
		tr.Insert(id, w)
	}
	for _, q := range queries {
		for k := 0; k <= 4; k++ {
			want := bruteRange(words, q, k)
			bkGot, _ := bk.RangeStats(q, k)
			if got := sortedByID(bkGot); !reflect.DeepEqual(got, want) {
				t.Errorf("BKTree.Range(%q, %d) = %v, want %v", q, k, got, want)
			}
			trGot, _ := tr.RangeStats(q, k)
			if got := sortedByID(trGot); !reflect.DeepEqual(got, want) {
				t.Errorf("Trie.Range(%q, %d) = %v, want %v", q, k, got, want)
			}
		}
		for _, k := range []int{1, 3, 10} {
			want := bruteNearestK(words, q, k)
			if got := bk.NearestK(q, k); !reflect.DeepEqual(got, want) {
				t.Errorf("BKTree.NearestK(%q, %d) = %v, want %v", q, k, got, want)
			}
		}
	}
}

// TestBKTreeLengthRejectionPrunes pins that the length-difference fast
// path skips DP work on nodes the triangle inequality admits: the leaf
// "ijklmnop" sits at edge distance 8 from the root, inside the [d-k,
// d+k] = [7, 9] admission band for the doubled query, but its length
// skew of 8 exceeds the leaf budget k=1 — so it is visited, never
// verified, and the match set is unchanged.
func TestBKTreeLengthRejectionPrunes(t *testing.T) {
	bk := NewBKTree()
	bk.Insert(0, "abcdefgh")
	bk.Insert(1, "ijklmnop")
	query := strings.Repeat("abcdefgh", 2)
	got, st := bk.RangeStats(query, 1)
	if len(got) != 0 {
		t.Errorf("RangeStats(%q, 1) = %v, want no matches", query, got)
	}
	if st.Candidates != 2 {
		t.Errorf("Candidates = %d, want 2 (leaf admitted by triangle band)", st.Candidates)
	}
	if st.Verifications != 1 {
		t.Errorf("Verifications = %d, want 1 (leaf skipped by length rejection)", st.Verifications)
	}
}
