package editdp

import (
	"math/rand"
	"strings"
	"testing"
)

// refLevenshtein is an independent textbook DP (full matrix, no affix
// stripping, no banding) so the parity tests do not compare the Myers
// kernel against optimizations that share code with it.
func refLevenshtein(x, y string) int {
	n, m := len(x), len(y)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if x[i-1] == y[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func TestMyersDistanceTable(t *testing.T) {
	long := strings.Repeat("abcdefgh", 12)  // 96 chars: block variant
	longSub := long[:40] + "X" + long[41:]  // one substitution
	longIns := long[:50] + "zz" + long[50:] // two insertions
	nonASCII := "na\xffve\x00caf\xe9"       // high and zero bytes
	cases := []struct{ x, y string }{
		{"", ""},
		{"", "abc"},
		{"abc", ""},
		{"abc", "abc"},
		{"kitten", "sitting"},
		{"flaw", "lawn"},
		{"a", "b"},
		{"ab", "ba"},
		{"abcdefgh", "abcdxfgh"},
		{nonASCII, "naive caf"},
		{long, long},
		{long, longSub},
		{long, longIns},
		{long, "short"},
		{strings.Repeat("x", 64), strings.Repeat("x", 63) + "y"},
		{strings.Repeat("x", 65), strings.Repeat("y", 65)},
	}
	for _, c := range cases {
		want := refLevenshtein(c.x, c.y)
		if got := MyersDistance(c.x, c.y); got != want {
			t.Errorf("MyersDistance(%q, %q) = %d, want %d", c.x, c.y, got, want)
		}
		if got := NewQueryDP(c.x).Distance(c.y); got != want {
			t.Errorf("QueryDP(%q).Distance(%q) = %d, want %d", c.x, c.y, got, want)
		}
		for _, k := range []int{0, 1, 2, want - 1, want, want + 1, len(c.x) + len(c.y)} {
			wd, wok := 0, false
			if k >= 0 && want <= k {
				wd, wok = want, true
			}
			if gd, gok := MyersWithin(c.x, c.y, k); gd != wd || gok != wok {
				t.Errorf("MyersWithin(%q, %q, %d) = (%d, %v), want (%d, %v)", c.x, c.y, k, gd, gok, wd, wok)
			}
			if gd, gok := NewQueryDP(c.x).Within(c.y, k); gd != wd || gok != wok {
				t.Errorf("QueryDP(%q).Within(%q, %d) = (%d, %v), want (%d, %v)", c.x, c.y, k, gd, gok, wd, wok)
			}
			if gd, gok := LevenshteinWithin(c.x, c.y, k); gd != wd || gok != wok {
				t.Errorf("LevenshteinWithin(%q, %q, %d) = (%d, %v), want (%d, %v)", c.x, c.y, k, gd, gok, wd, wok)
			}
		}
	}
}

// TestMyersStateStepping drives the incremental single-word stepper the
// trie uses and checks Score and RowMin against the textbook DP row.
func TestMyersStateStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := "abcd\xff"
	for trial := 0; trial < 200; trial++ {
		qlen := 1 + rng.Intn(64)
		q := randString(rng, alpha, qlen)
		text := randString(rng, alpha, rng.Intn(30))
		dp := NewQueryDP(q)
		if !dp.SingleWord() {
			t.Fatalf("QueryDP(%q).SingleWord() = false", q)
		}
		// Textbook row: row[j] = D[j][depth] for pattern prefix... we track
		// the column over the pattern: row[j] = dist(q[:j], text[:depth]).
		row := make([]int, len(q)+1)
		for j := range row {
			row[j] = j
		}
		st := dp.Start()
		checkState(t, dp, st, row, 0, q, "")
		for i := 0; i < len(text); i++ {
			st = dp.Step(st, text[i])
			prevDiag := row[0]
			row[0] = i + 1
			for j := 1; j <= len(q); j++ {
				cost := 1
				if q[j-1] == text[i] {
					cost = 0
				}
				best := prevDiag + cost
				if v := row[j] + 1; v < best {
					best = v
				}
				if v := row[j-1] + 1; v < best {
					best = v
				}
				prevDiag, row[j] = row[j], best
			}
			checkState(t, dp, st, row, i+1, q, text[:i+1])
		}
	}
}

func checkState(t *testing.T, dp *QueryDP, st MyersState, row []int, depth int, q, text string) {
	t.Helper()
	if st.Score != row[len(row)-1] {
		t.Fatalf("Step(%q over %q): Score = %d, want %d", q, text, st.Score, row[len(row)-1])
	}
	min := row[0]
	for _, v := range row {
		if v < min {
			min = v
		}
	}
	if got := dp.RowMin(st, depth); got != min {
		t.Fatalf("RowMin(%q over %q) = %d, want %d (row %v)", q, text, got, min, row)
	}
}

func randString(rng *rand.Rand, alpha string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// FuzzMyersParity pins the bit-parallel kernels to the scalar DP on
// arbitrary byte strings — including >64-byte block inputs and
// non-ASCII bytes — across MyersDistance, MyersWithin, QueryDP and the
// banded LevenshteinWithin. A kernel built for y and Reset to x must
// answer exactly as one built for x, whichever side of the 64-byte
// block boundary either pattern lies on.
func FuzzMyersParity(f *testing.F) {
	f.Add("", "", 0)
	f.Add("kitten", "sitting", 2)
	f.Add("abcdefgh", "abcdxfgh", 1)
	f.Add("na\xffve", "naive", 3)
	f.Add(strings.Repeat("abcdefgh", 12), strings.Repeat("abcdefgi", 12), 15)
	f.Add(strings.Repeat("\xfe\x00", 40), strings.Repeat("\xfe", 90), 70)
	f.Add(strings.Repeat("x", 64), strings.Repeat("x", 65), 1)
	f.Add(strings.Repeat("ab", 33), "", 2)
	f.Add("", strings.Repeat("yz", 70), 3)
	f.Add(strings.Repeat("q", 130), strings.Repeat("qr", 64), 4)
	f.Fuzz(func(t *testing.T, x, y string, k int) {
		if len(x) > 512 || len(y) > 512 {
			return
		}
		if k < -1 {
			k = -k
		}
		if k > 1024 {
			k %= 1024
		}
		want := refLevenshtein(x, y)
		if got := Levenshtein(x, y); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, want %d", x, y, got, want)
		}
		if got := MyersDistance(x, y); got != want {
			t.Fatalf("MyersDistance(%q, %q) = %d, want %d", x, y, got, want)
		}
		dp := NewQueryDP(x)
		if got := dp.Distance(y); got != want {
			t.Fatalf("QueryDP(%q).Distance(%q) = %d, want %d", x, y, got, want)
		}
		wd, wok := 0, false
		if k >= 0 && want <= k {
			wd, wok = want, true
		}
		if gd, gok := MyersWithin(x, y, k); gd != wd || gok != wok {
			t.Fatalf("MyersWithin(%q, %q, %d) = (%d, %v), want (%d, %v)", x, y, k, gd, gok, wd, wok)
		}
		if gd, gok := dp.Within(y, k); gd != wd || gok != wok {
			t.Fatalf("QueryDP(%q).Within(%q, %d) = (%d, %v), want (%d, %v)", x, y, k, gd, gok, wd, wok)
		}
		if gd, gok := LevenshteinWithin(x, y, k); gd != wd || gok != wok {
			t.Fatalf("LevenshteinWithin(%q, %q, %d) = (%d, %v), want (%d, %v)", x, y, k, gd, gok, wd, wok)
		}
		// Retargeted kernels: y -> x, and back x -> y -> x through one
		// kernel, against both texts.
		re := NewQueryDP(y)
		re.Reset(x)
		checkReset(t, re, dp, x, y, k)
		re.Reset(y)
		re.Reset(x)
		checkReset(t, re, dp, x, y, k)
	})
}

// checkReset compares a retargeted kernel with a fresh one for the same
// pattern on Distance and Within over both fuzz texts.
func checkReset(t *testing.T, re, fresh *QueryDP, x, y string, k int) {
	t.Helper()
	for _, text := range []string{x, y} {
		if g, w := re.Distance(text), fresh.Distance(text); g != w {
			t.Fatalf("Reset(%q).Distance(%q) = %d, fresh kernel %d", x, text, g, w)
		}
		gd, gok := re.Within(text, k)
		wd, wok := fresh.Within(text, k)
		if gd != wd || gok != wok {
			t.Fatalf("Reset(%q).Within(%q, %d) = (%d, %v), fresh kernel (%d, %v)", x, text, k, gd, gok, wd, wok)
		}
	}
}

// FuzzMyersPacked pins every lane of DistanceRows to Levenshtein: a
// pattern of 0–16 bytes (16 and 0 are outside PacksRows and must be
// refused) against 1–RowLanes texts of one length, 0 included, cut
// from arbitrary bytes.
func FuzzMyersPacked(f *testing.F) {
	f.Add("kitten", "sittingsittensitting", uint8(3), uint8(7))
	f.Add("", "abc", uint8(1), uint8(3))
	f.Add("abc", "", uint8(4), uint8(0))
	f.Add(strings.Repeat("x", 15), strings.Repeat("xy", 30), uint8(4), uint8(15))
	f.Add(strings.Repeat("x", 16), strings.Repeat("x", 64), uint8(4), uint8(16))
	f.Add("na\xffve\x00", "\xff\x00naive\xfe\xfe\xfe", uint8(2), uint8(5))
	f.Add("ab", strings.Repeat("ba", 40), uint8(4), uint8(20))
	f.Fuzz(func(t *testing.T, pattern, pool string, lanes, n uint8) {
		if len(pattern) > 16 {
			pattern = pattern[:16]
		}
		if len(pool) == 0 {
			pool = "\x00"
		}
		k, w := 1+int(lanes)%RowLanes, int(n)%64
		texts := make([]string, k)
		for i := range texts {
			// Text i is the w bytes of pool from offset i·w, wrapping.
			b := make([]byte, w)
			for j := range b {
				b[j] = pool[(i*w+j)%len(pool)]
			}
			texts[i] = string(b)
		}
		dp := NewQueryDP(pattern)
		if want := len(pattern) >= 1 && len(pattern) <= 15; dp.PacksRows(len(texts[0])) != want {
			t.Fatalf("QueryDP(%q).PacksRows(%d) = %v, want %v", pattern, len(texts[0]), !want, want)
		}
		if !dp.PacksRows(len(texts[0])) {
			return
		}
		out := make([]int, k)
		dp.DistanceRows(texts, out)
		for i, text := range texts {
			if want := Levenshtein(pattern, text); out[i] != want {
				t.Fatalf("QueryDP(%q).DistanceRows(%q)[%d] = %d, want %d", pattern, texts, i, out[i], want)
			}
		}
	})
}
