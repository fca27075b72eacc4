package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/seq"
)

// dataSeed seeds every dataset, whatever --seed is: the run seed varies
// the request sequence, not the data. Index shapes depend on the data so
// strongly (ts_range's R*-tree visits 128 nodes per query on one seed's
// walks and 211 on another's, p50 0.27 ms against 0.43 ms) that runs on
// different data cannot be held to one bound.
const dataSeed = 1

// dataset names one relation file made by cmd/datagen.
type dataset struct {
	rel   string // relation name the server loads it under
	kind  string // datagen -kind
	count int
	dim   int   // vectors only
	seed  int64 // datagen -seed
}

var (
	wordsData = dataset{rel: "words", kind: "words", count: 20000, seed: dataSeed}
	vecsData  = dataset{rel: "vecs", kind: "vectors", count: 20000, dim: 64, seed: dataSeed}
	dictData  = dataset{rel: "dict", kind: "words", count: 600, seed: dataSeed + 1} // not a prefix of words
)

func (d dataset) path(e *env) string { return filepath.Join(e.work, d.rel+".rel") }

func (d dataset) loadFlag(e *env) string { return d.rel + "=" + d.path(e) }

// generate writes the relation file with the datagen binary, so the
// server loads exactly what `datagen -seed` documents.
func (d dataset) generate(e *env) error {
	args := []string{"-kind", d.kind, "-count", strconv.Itoa(d.count),
		"-seed", strconv.FormatInt(d.seed, 10), "-out", d.path(e)}
	if d.dim > 0 {
		args = append(args, "-dim", strconv.Itoa(d.dim))
	}
	if out, err := exec.Command(filepath.Join(e.bin, "datagen"), args...).CombinedOutput(); err != nil {
		return fmt.Errorf("datagen %v: %v\n%s", args, err, out)
	}
	return nil
}

// load reads the file back through the relation codec: the harness
// derives query targets and its brute-force answers from the same rows
// the server holds, under the same tuple ids.
func (d dataset) load(e *env) (*relation.Relation, error) {
	f, err := os.Open(d.path(e))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.Load(d.rel, f)
}

// wordAlphabet is the alphabet cmd/datagen draws words from.
var wordAlphabet = seq.MustAlphabet("abcdefghij")

// wordTargets picks n dataset rows and applies 0-2 random edits to each,
// so every target has at least one near answer in the relation.
func wordTargets(rng *rand.Rand, rows []relation.Tuple, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		w := wordAlphabet.RandomEdits(rng, rows[rng.Intn(len(rows))].Seq, rng.Intn(3))
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}

// vecTargets picks n dataset rows and adds small Gaussian noise.
func vecTargets(rng *rand.Rand, rows []relation.Tuple, n int) []metric.Vector {
	out := make([]metric.Vector, n)
	for i := range out {
		base := rows[rng.Intn(len(rows))].Vec
		v := make(metric.Vector, len(base))
		for j, x := range base {
			v[j] = x + float32(rng.NormFloat64()*0.02)
		}
		out[i] = v
	}
	return out
}

// perturbSeries adds Gaussian noise of a hundredth of a random-walk
// step to each series.
func perturbSeries(rng *rand.Rand, series [][]float64) [][]float64 {
	out := make([][]float64, len(series))
	for i, base := range series {
		q := make([]float64, len(base))
		for j, x := range base {
			q[j] = x + rng.NormFloat64()*0.01
		}
		out[i] = q
	}
	return out
}

// ingestWord is the w-th row written by ingest_mix: ten symbols drawn
// from k-t, so it is more than two edits from every read target (all
// a-j) and reads keep a fixed answer while the relation grows. The
// multiplier is odd, so distinct w below 2^32 give distinct words.
func ingestWord(w int) string {
	x := uint32(w) * 2654435761
	b := make([]byte, 10)
	for i := range b {
		b[i] = 'k' + byte(x%10)
		x /= 10
	}
	return string(b)
}
