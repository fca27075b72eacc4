// Command datagen writes synthetic data sets in the relation text codec
// used by cmd/simq and the examples.
//
// Usage:
//
//	datagen -kind words   -count 10000 -out words.rel
//	datagen -kind stocks  -count 1067 -length 128 -out stocks.rel
//	datagen -kind vectors -count 10000 -dim 64 -out vectors.rel
//
// The words generator plants near-duplicates (a quarter of the words
// are 1-2 edits of earlier words) so similarity queries have answers;
// the stocks generator emits the companion paper's random-walk family,
// one series per line with values comma-separated in the seq column;
// the vectors generator emits float-vector rows drawn from a small set
// of Gaussian clusters (so NEAREST and WITHIN queries have natural
// neighbourhoods), carried in the vec column with the centroid index
// in a "cluster" attribute.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/seq"
	"repro/internal/stock"
)

func main() {
	kind := flag.String("kind", "words", "data set kind: words | stocks | vectors")
	count := flag.Int("count", 1000, "number of tuples")
	length := flag.Int("length", 128, "series length (stocks only)")
	dim := flag.Int("dim", 64, "vector dimension (vectors only)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}

	var rel *relation.Relation
	switch *kind {
	case "words":
		rel = words(*seed, *count)
	case "stocks":
		rel = stocks(*seed, *count, *length)
	case "vectors":
		rel = vectors(*seed, *count, *dim)
	default:
		fail(fmt.Errorf("unknown kind %q", *kind))
	}
	if err := rel.Store(w); err != nil {
		fail(err)
	}
}

func words(seedVal int64, count int) *relation.Relation {
	a := seq.MustAlphabet("abcdefghij")
	rng := rand.New(rand.NewSource(seedVal))
	rel := relation.New("words")
	for i, w := range a.PlantedWords(rng, count) {
		rel.Insert(w, map[string]string{"n": strconv.Itoa(i + 1)})
	}
	return rel
}

func stocks(seedVal int64, count, length int) *relation.Relation {
	rel := relation.New("stocks")
	for i, s := range stock.Walks(seedVal, count, length) {
		parts := make([]string, len(s))
		for j, v := range s {
			parts[j] = strconv.FormatFloat(v, 'f', 3, 64)
		}
		rel.Insert(strings.Join(parts, ","), map[string]string{"ticker": fmt.Sprintf("S%04d", i)})
	}
	return rel
}

// vectors draws rows from 16 Gaussian clusters: centroids uniform in
// [-1,1)^dim, members centroid + N(0, 0.1) per component. Clustered
// data gives NEAREST queries natural neighbourhoods and keeps the vector
// view's pruning honest (uniform data at high dimension prunes nothing).
func vectors(seedVal int64, count, dim int) *relation.Relation {
	if dim < 1 {
		fail(fmt.Errorf("vectors: -dim must be >= 1, got %d", dim))
	}
	rng := rand.New(rand.NewSource(seedVal))
	const clusters = 16
	centroids := make([][]float64, clusters)
	for i := range centroids {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()*2 - 1
		}
		centroids[i] = c
	}
	rel := relation.New("vectors")
	for i := 0; i < count; i++ {
		k := rng.Intn(clusters)
		v := make(metric.Vector, dim)
		for j, c := range centroids[k] {
			v[j] = float32(c + rng.NormFloat64()*0.1)
		}
		rel.InsertOne(relation.InsertRow{Vec: v, Attrs: map[string]string{"cluster": strconv.Itoa(k)}})
	}
	return rel
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
	os.Exit(1)
}
