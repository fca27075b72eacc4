package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// randWords returns n deterministic pseudo-random words over a-f.
func randWords(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		b := make([]byte, 3+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		out[i] = string(b)
	}
	return out
}

// TestOnlineInsertMatchesRebuild checks that a tree grown one insert at
// a time answers exactly like one built from scratch over the same
// entries, for both index structures.
func TestOnlineInsertMatchesRebuild(t *testing.T) {
	words := randWords(7, 500)
	bk, tr := NewBKTree(), NewTrie()
	for i, w := range words {
		bk.Insert(i, w)
		tr.Insert(i, w)
	}
	freshBK, freshTr := NewBKTree(), NewTrie()
	for i, w := range words {
		freshBK.Insert(i, w)
		freshTr.Insert(i, w)
	}
	for _, q := range []string{"abc", "fedcba", "aaaa", words[42]} {
		for k := 0; k <= 2; k++ {
			want := sortedMatches(freshBK.Range(q, k))
			for name, got := range map[string][]Match{
				"bktree": bk.Range(q, k),
				"trie":   tr.Range(q, k),
				"trie2":  freshTr.Range(q, k),
			} {
				got = sortedMatches(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s Range(%q,%d) = %v, want %v", name, q, k, got, want)
				}
			}
		}
	}
}

func sortedMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestConcurrentReadersDuringInsert drives many readers through both
// indexes while a single writer inserts — the storage engine's online
// maintenance pattern. Run under -race this pins the copy-on-write
// publication discipline; functionally each reader must see at least
// the entries present before it started.
func TestConcurrentReadersDuringInsert(t *testing.T) {
	words := randWords(11, 2000)
	bk, tr := NewBKTree(), NewTrie()
	const preload = 500
	for i := 0; i < preload; i++ {
		bk.Insert(i, words[i])
		tr.Insert(i, words[i])
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := words[(r*31+i)%preload]
				got := map[int]bool{}
				for _, m := range bk.Range(q, 1) {
					got[m.ID] = true
				}
				if !got[(r*31+i)%preload] {
					t.Errorf("bktree lost preloaded entry %q", q)
					return
				}
				got = map[int]bool{}
				for _, m := range tr.Range(q, 1) {
					got[m.ID] = true
				}
				if !got[(r*31+i)%preload] {
					t.Errorf("trie lost preloaded entry %q", q)
					return
				}
				if nk := bk.NearestK(q, 3); len(nk) == 0 || nk[0].Dist != 0 {
					t.Errorf("bktree NearestK(%q) = %v", q, nk)
					return
				}
			}
		}(r)
	}
	for i := preload; i < len(words); i++ {
		bk.Insert(i, words[i])
		tr.Insert(i, words[i])
	}
	close(stop)
	wg.Wait()

	if bk.Len() != len(words) || tr.Len() != len(words) {
		t.Fatalf("Len = %d/%d, want %d", bk.Len(), tr.Len(), len(words))
	}
}
