package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func randSeqs(seed int64, n int) []string {
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

// TestBatchIteratorMatchesNext: NextBatch must reproduce the Next
// stream exactly — same matches, same deterministic order, same work
// counters — for both metric indexes, at every block size, including
// mixed Next/NextBatch pulls.
func TestBatchIteratorMatchesNext(t *testing.T) {
	seqs := randSeqs(11, 300)
	bk, tr := NewBKTree(), NewTrie()
	for i, s := range seqs {
		bk.Insert(i, s)
		tr.Insert(i, s)
	}
	for _, idx := range []Index{bk, tr} {
		for _, k := range []int{0, 1, 2} {
			name := fmt.Sprintf("%T/k=%d", idx, k)
			var want []Match
			it := idx.RangeIter("abcd", k)
			for m, ok := it.Next(); ok; m, ok = it.Next() {
				want = append(want, m)
			}
			wantStats := it.Stats()
			for _, size := range []int{1, 7, 64} {
				bit, ok := idx.RangeIter("abcd", k).(BatchIterator)
				if !ok {
					t.Fatalf("%s: iterator does not implement BatchIterator", name)
				}
				var got []Match
				dst := make([]Match, size)
				for {
					n := bit.NextBatch(dst)
					if n == 0 {
						break
					}
					got = append(got, dst[:n]...)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s size=%d: batch stream diverges (%d vs %d matches)", name, size, len(got), len(want))
				}
				if bit.Stats() != wantStats {
					t.Fatalf("%s size=%d: stats diverge: %+v vs %+v", name, size, bit.Stats(), wantStats)
				}
			}
			// Mixed pulls share traversal state.
			mixed, _ := idx.RangeIter("abcd", k).(BatchIterator)
			var got []Match
			if m, ok := mixed.Next(); ok {
				got = append(got, m)
			}
			dst := make([]Match, 5)
			for {
				n := mixed.NextBatch(dst)
				if n == 0 {
					break
				}
				got = append(got, dst[:n]...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: mixed Next/NextBatch stream diverges", name)
			}
		}
	}
}
