package index_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/relation"
)

// benchVPData builds a clustered dataset (16 Gaussian clusters, the
// datagen -kind vectors shape) so the VP-tree has real pruning
// structure to exploit — uniform data would understate the tree at
// every dimension.
func benchVPData(dim, n int) []metric.Vector {
	rng := rand.New(rand.NewSource(int64(dim)*1000 + int64(n)))
	centroids := make([]metric.Vector, 16)
	for k := range centroids {
		c := make(metric.Vector, dim)
		for j := range c {
			c[j] = float32(rng.Float64()*2 - 1)
		}
		centroids[k] = c
	}
	vecs := make([]metric.Vector, n)
	for i := range vecs {
		c := centroids[rng.Intn(len(centroids))]
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64()*0.1)
		}
		vecs[i] = v
	}
	return vecs
}

// BenchmarkVPTreeVsScan ranges the same clustered 4096-vector dataset
// through the insertion-built VP-tree, through the bulk-loaded vector
// view the query engine reads (relation.VecView) and through the scan
// path (one DistBatch over the whole column, the batch pipeline's brute
// force). One op is 16 queries. The base radius selects roughly one
// cluster; the sweep multiplies it up to past the data's diameter,
// where both structures visit everything. The tree and view arms report
// the fraction of the column they computed distances for (visited/row,
// vantages included). The dimension sweep shows how the pruning holds
// up as distances concentrate.
func BenchmarkVPTreeVsScan(b *testing.B) {
	l2, ok := metric.Lookup("l2")
	if !ok {
		b.Fatal("l2 metric not registered")
	}
	batcher := l2.(metric.Batcher)
	for _, dim := range []int{8, 64, 384} {
		vecs := benchVPData(dim, 4096)
		tree := index.NewVPTree(l2)
		rel := relation.New("vecs")
		for i, v := range vecs {
			tree.Insert(i, v)
			rel.InsertOne(relation.InsertRow{Vec: v})
		}
		rel.VecView(l2)
		snap := rel.Snapshot()
		queries := vecs[:16]
		// ~0.25·sqrt(dim): scales with the within-cluster distance
		// spread (noise std 0.1 per component), so each query selects
		// roughly its own cluster at every dimension. 16x that is past
		// the diameter of data in [-1.5, 1.5]^dim.
		base := 0.25 * float64(intSqrt(dim))
		for _, mult := range []float64{1, 2, 4, 16} {
			radius := base * mult
			name := fmt.Sprintf("dim=%d/r=%gx", dim, mult)
			b.Run(name+"/vptree", func(b *testing.B) {
				hits, visited := 0, 0
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						ms, st := tree.RangeStats(q, radius)
						hits += len(ms)
						visited += st.Verifications
					}
				}
				benchSink = hits
				b.ReportMetric(float64(visited)/float64(b.N*len(queries)*len(vecs)), "visited/row")
			})
			b.Run(name+"/vecview", func(b *testing.B) {
				hits, visited := 0, 0
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						r := radius
						st, _ := snap.VecWalk(context.Background(), l2, q, &r, func(rows []*relation.Row, _ []float64) { hits += len(rows) })
						visited += st.Verifications
					}
				}
				benchSink = hits
				b.ReportMetric(float64(visited)/float64(b.N*len(queries)*len(vecs)), "visited/row")
			})
			b.Run(name+"/scan", func(b *testing.B) {
				out := make([]float64, len(vecs))
				hits := 0
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						batcher.DistBatch(q, vecs, out)
						for _, d := range out {
							if d <= radius {
								hits++
							}
						}
					}
				}
				benchSink = hits
			})
		}
	}
}

// intSqrt is floor(sqrt(n)) for small positive n.
func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

var benchSink int
