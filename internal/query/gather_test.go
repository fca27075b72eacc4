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
)

// stubShardOp emits a fixed row list, two rows per block, after its
// gate releases and signals done on CloseBatch, letting the test
// serialize shard completion into an exact order. A row binds one slot,
// like every single-relation shard subplan's, or two, like a join
// chain's.
type stubShardOp struct {
	rows []gatherRow
	gate chan struct{}
	done chan struct{}
	pos  int
	buf  Batch
}

// gatherRow is one stub row: a tuple id per slot and the distance.
type gatherRow struct {
	ids  []int
	dist float64
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
	end := min(o.pos+2, len(o.rows))
	o.buf.reset(len(o.rows[o.pos].ids))
	for _, r := range o.rows[o.pos:end] {
		for s, id := range r.ids {
			o.buf.slot(s).Append(id, fmt.Sprintf("s%d", id), nil, nil)
		}
		o.buf.dist = append(o.buf.dist, r.dist)
		o.buf.has = append(o.buf.has, true)
	}
	o.pos = end
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

func mkRow(id int, dist float64) gatherRow { return gatherRow{ids: []int{id}, dist: dist} }

// mkJoined is one row of a join chain: the outer tuple in slot 0, the
// inner in slot 1, with the inner id doubling as the distance so the
// merged order of inner matches is visible in the output.
func mkJoined(outer, inner int) gatherRow {
	return gatherRow{ids: []int{outer, inner}, dist: float64(inner)}
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
func drainGather(t *testing.T, shardRows [][]gatherRow, mode gatherMode, k int, completion []int) [][2]float64 {
	t.Helper()
	children := make([]BatchOperator, len(shardRows))
	stubs := make([]*stubShardOp, len(shardRows))
	for i, rows := range shardRows {
		stubs[i] = &stubShardOp{rows: rows, gate: make(chan struct{}), done: make(chan struct{})}
		children[i] = stubs[i]
	}
	op := &batchGatherMergeOp{
		ctx: &execCtx{}, children: children, workers: len(children),
		mode: mode, k: k, size: 3,
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
			for i := range b.IDs {
				if b.width() > 1 && float64(b.slot(1).IDs[i]) != b.dist[i] {
					done <- fmt.Errorf("row %d lost its inner slot: id %d, dist %v", i, b.slot(1).IDs[i], b.dist[i])
					return
				}
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
		shards [][]gatherRow // per shard, in the shard's own emit order
		mode   gatherMode
		k      int
		want   [][2]float64
	}{
		{
			name: "bestk equal distances across shards",
			shards: [][]gatherRow{
				{mkRow(3, 1), mkRow(7, 1)},
				{mkRow(1, 1), mkRow(9, 1)},
				{mkRow(5, 1), mkRow(6, 1)},
			},
			mode: gatherBestK, k: 4,
			// All dist 1: ids ascending, truncated to k.
			want: [][2]float64{{1, 1}, {3, 1}, {5, 1}, {6, 1}},
		},
		{
			name: "bestk mixed distances with boundary tie",
			shards: [][]gatherRow{
				{mkRow(10, 0), mkRow(11, 2)},
				{mkRow(2, 2), mkRow(4, 3)},
				{mkRow(8, 1)},
			},
			mode: gatherBestK, k: 3,
			// The k-th slot is contested by dist-2 rows 2 and 11: lower id
			// wins regardless of which shard delivered first.
			want: [][2]float64{{10, 0}, {8, 1}, {2, 2}},
		},
		{
			name: "bestk k larger than matches",
			shards: [][]gatherRow{
				{mkRow(2, 2)},
				{},
				{mkRow(1, 2)},
			},
			mode: gatherBestK, k: 10,
			want: [][2]float64{{1, 2}, {2, 2}},
		},
		{
			name: "id merge restores global scan order",
			shards: [][]gatherRow{
				{mkRow(0, 1), mkRow(5, 1)},
				{mkRow(2, 1)},
				{mkRow(1, 1), mkRow(3, 1), mkRow(4, 1)},
			},
			mode: gatherByID,
			want: [][2]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}},
		},
		{
			name: "id merge of join chains keeps each outer row's inner order",
			shards: [][]gatherRow{
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
