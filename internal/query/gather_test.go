package query

// GatherMerge determinism: equal-distance rows must order by row key
// (tuple id) no matter which shard finishes first. The stub children
// block in OpenBatch until released, so each table case is executed under
// every permutation of shard completion order and must produce the
// same bytes.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// stubShardOp emits a fixed row list, two rows per block, after its
// gate releases and signals done on CloseBatch, letting the test
// serialize shard completion into an exact order. Single-alias rows
// travel as columns, like every single-relation shard subplan's; joined
// rows travel in the bindings layout, like a join chain's.
type stubShardOp struct {
	rows []*binding
	gate chan struct{}
	done chan struct{}
	pos  int
	buf  Batch
}

func (o *stubShardOp) OpenBatch() error {
	if o.gate != nil {
		<-o.gate
	}
	o.pos = 0
	return nil
}

func (o *stubShardOp) NextBatch() (*Batch, error) {
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	end := o.pos + 2
	if end > len(o.rows) {
		end = len(o.rows)
	}
	blk := o.rows[o.pos:end]
	o.pos = end
	o.buf.reset()
	if blk[0].aliases != nil {
		o.buf.binds = blk
		return &o.buf, nil
	}
	for _, b := range blk {
		o.buf.appendMatch(b.tuple, b.dist, b.hasDist)
	}
	return &o.buf, nil
}

func (o *stubShardOp) CloseBatch() error {
	select {
	case <-o.done:
	default:
		close(o.done)
	}
	return nil
}

func (o *stubShardOp) Describe() string            { return "StubShard" }
func (o *stubShardOp) childNodes() []BatchOperator { return nil }

func mkBinding(id int, dist float64) *binding {
	b := newBinding("t", relation.Tuple{ID: id, Seq: fmt.Sprintf("s%d", id)})
	b.dist, b.hasDist = dist, true
	return b
}

// mkJoined is one row of a join chain: outer tuple under "t", inner
// under "u", with the inner id doubling as the distance so the merged
// order of inner matches is visible in the output.
func mkJoined(outer, inner int) *binding {
	b := mergeBindings(newBinding("t", relation.Tuple{ID: outer}), newBinding("u", relation.Tuple{ID: inner}))
	b.dist, b.hasDist = float64(inner), true
	return b
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// drainGather runs a batchGatherMergeOp whose children complete in the
// given order and returns the merged (id, dist) pairs.
func drainGather(t *testing.T, shardRows [][]*binding, mode gatherMode, k int, completion []int) [][2]float64 {
	t.Helper()
	children := make([]BatchOperator, len(shardRows))
	stubs := make([]*stubShardOp, len(shardRows))
	for i, rows := range shardRows {
		stubs[i] = &stubShardOp{rows: rows, gate: make(chan struct{}), done: make(chan struct{})}
		children[i] = stubs[i]
	}
	op := &batchGatherMergeOp{
		ctx: &execCtx{}, children: children, workers: len(children),
		alias: "t", mode: mode, k: k, size: 3,
	}
	done := make(chan error, 1)
	var got [][2]float64
	go func() {
		if err := op.OpenBatch(); err != nil {
			done <- err
			return
		}
		for {
			b, err := op.NextBatch()
			if err != nil {
				done <- err
				return
			}
			if b == nil {
				break
			}
			if b.Len() > 3 {
				done <- fmt.Errorf("gather emitted a block of %d rows, block size is 3", b.Len())
				return
			}
			for _, rb := range b.binds {
				tup, _ := rb.tupleFor("t")
				got = append(got, [2]float64{float64(tup.ID), rb.dist})
			}
			for i := range b.IDs {
				got = append(got, [2]float64{float64(b.IDs[i]), b.dist[i]})
			}
		}
		done <- op.CloseBatch()
	}()
	// Release the shards strictly in the permuted completion order:
	// shard i+1 may not even start until shard i has fully finished.
	for _, i := range completion {
		close(stubs[i].gate)
		<-stubs[i].done
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGatherMergeTieBreaking: table-driven over merge modes and tie
// layouts; every completion-order permutation must yield the identical
// output.
func TestGatherMergeTieBreaking(t *testing.T) {
	cases := []struct {
		name   string
		shards [][]*binding // per shard, in the shard's own emit order
		mode   gatherMode
		k      int
		want   [][2]float64
	}{
		{
			name: "bestk equal distances across shards",
			shards: [][]*binding{
				{mkBinding(3, 1), mkBinding(7, 1)},
				{mkBinding(1, 1), mkBinding(9, 1)},
				{mkBinding(5, 1), mkBinding(6, 1)},
			},
			mode: gatherBestK, k: 4,
			// All dist 1: ids ascending, truncated to k.
			want: [][2]float64{{1, 1}, {3, 1}, {5, 1}, {6, 1}},
		},
		{
			name: "bestk mixed distances with boundary tie",
			shards: [][]*binding{
				{mkBinding(10, 0), mkBinding(11, 2)},
				{mkBinding(2, 2), mkBinding(4, 3)},
				{mkBinding(8, 1)},
			},
			mode: gatherBestK, k: 3,
			// The k-th slot is contested by dist-2 rows 2 and 11: lower id
			// wins regardless of which shard delivered first.
			want: [][2]float64{{10, 0}, {8, 1}, {2, 2}},
		},
		{
			name: "bestk k larger than matches",
			shards: [][]*binding{
				{mkBinding(2, 2)},
				{},
				{mkBinding(1, 2)},
			},
			mode: gatherBestK, k: 10,
			want: [][2]float64{{1, 2}, {2, 2}},
		},
		{
			name: "id merge restores global scan order",
			shards: [][]*binding{
				{mkBinding(0, 1), mkBinding(5, 1)},
				{mkBinding(2, 1)},
				{mkBinding(1, 1), mkBinding(3, 1), mkBinding(4, 1)},
			},
			mode: gatherByID,
			want: [][2]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}},
		},
		{
			name: "id merge of join chains keeps each outer row's inner order",
			shards: [][]*binding{
				// One chain per outer shard: the outer id repeats once per
				// inner match and the merge key is the OUTER id alone, so
				// the merge must keep each outer row's matches in the
				// chain's emit order — 7, 9 and 2, 5, 8 here, and 6 before
				// 1: the gather never looks at inner ids.
				{mkJoined(0, 7), mkJoined(0, 9), mkJoined(4, 2), mkJoined(4, 5), mkJoined(4, 8)},
				{mkJoined(1, 3)},
				{mkJoined(2, 6), mkJoined(2, 1)},
			},
			mode: gatherByID,
			want: [][2]float64{{0, 7}, {0, 9}, {1, 3}, {2, 6}, {2, 1}, {4, 2}, {4, 5}, {4, 8}},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, perm := range permutations(len(c.shards)) {
				got := drainGather(t, c.shards, c.mode, c.k, perm)
				if !reflect.DeepEqual(got, c.want) {
					t.Fatalf("completion order %v: merged %v, want %v", perm, got, c.want)
				}
			}
		})
	}
}
