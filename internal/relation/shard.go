// Horizontal sharding. A ShardedRelation hash-partitions its rows
// across N plain Relations ("shards"), each with its own MVCC arena,
// online-maintained access structures and — when the storage layer
// runs segmented — its own WAL segment. Tuple ids stay global: the
// sharded relation owns the id allocator and installs rows into shards
// with InsertAt/InsertBatchAt, so a sharded relation assigns exactly
// the ids its unsharded twin would (the property the oracle tests pin).
//
// Readers never see a half-applied cross-shard commit: every mutation,
// after updating the affected shards, publishes a fresh ShardView — a
// vector of per-shard snapshots captured together under the writer
// mutex — through one atomic pointer swap. A reader loads the vector
// once and reads all shards at that consistent cut; concurrent commits
// build the next vector without disturbing it. This is the cross-shard
// analogue of Relation's single-head MVCC publish.
package relation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
)

// ShardOf is the hash partitioner for sequence-only rows: the shard
// index in [0,n) that owns a sequence. Equivalent to RouteOf(seq, nil,
// n), kept as the short form for the (vast majority of) call sites
// without a vector column.
func ShardOf(seq string, n int) int {
	return RouteOf(seq, nil, n)
}

// RouteOf is the full-width hash partitioner: FNV-1a over the sequence
// bytes followed by the little-endian float32 bit patterns of the
// vector, reduced mod n — fast, allocation-free, and stable across
// processes (replay and re-open must route every row to the shard that
// logged it). Hashing bit patterns rather than values means a row
// routes identically after any text round-trip, because the vector
// codec is bit-exact. Rows with a nil vector hash exactly as they did
// before the vector column existed, so pre-existing WALs replay to the
// same shards.
func RouteOf(seq string, vec metric.Vector, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(seq))
	if len(vec) > 0 {
		var buf [4]byte
		for _, x := range vec {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	return int(h.Sum64() % uint64(n))
}

// ShardedRelation is a Table whose rows are hash-partitioned across N
// shard Relations. All mutations serialize on its mutex and finish by
// publishing a consistent ShardView; reads go through the view and
// never block writers.
type ShardedRelation struct {
	name   string
	mu     sync.Mutex // serializes mutations and view publishes
	shards []*Relation
	nextID int // global id allocator (shared with ReserveIDs)

	view    atomic.Pointer[ShardView]
	version atomic.Uint64
}

// NewSharded returns an empty sharded relation with n shards (n < 1
// clamps to 1 — a degenerate but valid single-shard layout).
func NewSharded(name string, n int) *ShardedRelation {
	if n < 1 {
		n = 1
	}
	s := &ShardedRelation{name: name, shards: make([]*Relation, n)}
	for i := range s.shards {
		s.shards[i] = New(fmt.Sprintf("%s/%d", name, i))
	}
	s.view.Store(s.captureView())
	return s
}

// Name returns the sharded relation's name.
func (s *ShardedRelation) Name() string { return s.name }

// NumShards returns the shard count.
func (s *ShardedRelation) NumShards() int { return len(s.shards) }

// Version is the mutation counter; see Relation.Version.
func (s *ShardedRelation) Version() uint64 { return s.version.Load() }

// captureView snapshots every shard. Callers that need a consistent
// cut hold mu; the constructor runs before the value escapes.
func (s *ShardedRelation) captureView() *ShardView {
	snaps := make([]*Snapshot, len(s.shards))
	for i, r := range s.shards {
		snaps[i] = r.Snapshot()
	}
	return &ShardView{snaps: snaps}
}

// publishLocked installs a fresh view and bumps the version. Caller
// holds mu and has finished mutating the shards.
func (s *ShardedRelation) publishLocked() {
	s.view.Store(s.captureView())
	s.version.Add(1)
}

// View returns the current consistent read view. Like Snapshot it is
// one atomic load, never expires, and needs no release.
func (s *ShardedRelation) View() *ShardView { return s.view.Load() }

// Len returns the number of visible tuples across all shards.
func (s *ShardedRelation) Len() int { return s.View().Len() }

// Stats returns merged planner statistics; see ShardView.Stats.
func (s *ShardedRelation) Stats() Stats { return s.View().Stats() }

// Tuple returns the visible tuple with the given id.
func (s *ShardedRelation) Tuple(id int) (Tuple, bool) { return s.View().Tuple(id) }

// Tuples materialises the visible tuples in global id order.
func (s *ShardedRelation) Tuples() []Tuple { return s.View().Tuples() }

// ShardStat describes one shard for metrics endpoints.
type ShardStat struct {
	Rows       int `json:"rows"`
	Tombstones int `json:"tombstones"`
	SeqBytes   int `json:"seq_bytes"`
}

// ShardStats snapshots per-shard row counts at the current view.
func (s *ShardedRelation) ShardStats() []ShardStat {
	v := s.View()
	out := make([]ShardStat, len(v.snaps))
	for i, sn := range v.snaps {
		out[i] = ShardStat{Rows: sn.h.live, Tombstones: sn.h.dead, SeqBytes: sn.h.seqBytes}
	}
	return out
}

// Insert routes the row to its hash shard under a fresh global id.
func (s *ShardedRelation) Insert(seq string, attrs map[string]string) int {
	return s.InsertBatch([]InsertRow{{Seq: seq, Attrs: attrs}})[0]
}

// InsertBatch appends rows in ONE cross-shard commit: ids are assigned
// in row order, rows are routed by sequence hash, each touched shard
// applies its run as one batch, and a single view publish makes the
// whole batch visible atomically.
func (s *ShardedRelation) InsertBatch(rows []InsertRow) []int {
	if len(rows) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, len(rows))
	perIDs := make([][]int, len(s.shards))
	perRows := make([][]InsertRow, len(s.shards))
	for i, in := range rows {
		id := s.nextID
		s.nextID++
		ids[i] = id
		sh := RouteOf(in.Seq, in.Vec, len(s.shards))
		perIDs[sh] = append(perIDs[sh], id)
		perRows[sh] = append(perRows[sh], in)
	}
	for sh, rs := range perRows {
		if len(rs) > 0 {
			s.shards[sh].InsertBatchAt(perIDs[sh], cloneSeqs(rs))
		}
	}
	s.publishLocked()
	return ids
}

// cloneSeqs copies the sequence bytes of one shard's insert run into
// fresh, consecutively-allocated strings. Hash routing scatters a
// batch's rows across shards, so without the copy a shard's arena
// points at every N-th string of the original load — and a scan's
// verification DP then strides through the whole batch's string heap
// instead of reading one shard's worth sequentially. The copy at
// ingest restores per-shard locality (~15% on scan-bound queries) for
// one extra allocation per row, paid off the query path.
func cloneSeqs(rows []InsertRow) []InsertRow {
	out := make([]InsertRow, len(rows))
	for i, r := range rows {
		out[i] = InsertRow{Seq: strings.Clone(r.Seq), Vec: r.Vec.Clone(), Attrs: r.Attrs}
	}
	return out
}

// InsertBatchAt installs rows under caller-assigned ids in ONE
// cross-shard commit (the explicit-id analogue of InsertBatch; the
// segmented storage layer applies reserved-id ingest batches with it).
// Rows whose id is already taken are skipped; the installed ids are
// returned in batch order.
func (s *ShardedRelation) InsertBatchAt(ids []int, rows []InsertRow) []int {
	if len(rows) == 0 || len(ids) != len(rows) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	perIDs := make([][]int, len(s.shards))
	perRows := make([][]InsertRow, len(s.shards))
	seen := make(map[int]bool, len(rows))
	installed := make([]int, 0, len(rows))
	for i, in := range rows {
		id := ids[i]
		// Ids must be fresh across the whole relation and the batch
		// itself, mirroring InsertAt's single-row contract.
		if seen[id] || s.shardOfIDLocked(id) >= 0 {
			continue
		}
		seen[id] = true
		installed = append(installed, id)
		sh := RouteOf(in.Seq, in.Vec, len(s.shards))
		perIDs[sh] = append(perIDs[sh], id)
		perRows[sh] = append(perRows[sh], in)
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	if len(installed) == 0 {
		return nil
	}
	for sh, rs := range perRows {
		if len(rs) > 0 {
			s.shards[sh].InsertBatchAt(perIDs[sh], cloneSeqs(rs))
		}
	}
	s.publishLocked()
	return installed
}

// InsertAt installs a row under a caller-assigned id (segmented-WAL
// replay and reserved-id commits); false when the id is already taken.
func (s *ShardedRelation) InsertAt(id int, seq string, attrs map[string]string) bool {
	return s.InsertRowAt(id, InsertRow{Seq: seq, Attrs: attrs})
}

// InsertRowAt is InsertAt carrying the full tuple width.
func (s *ShardedRelation) InsertRowAt(id int, in InsertRow) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The id must be fresh across ALL shards — the row owning it may live
	// on a different shard than the one this row hashes to.
	if s.shardOfIDLocked(id) >= 0 {
		return false
	}
	ok := s.shards[RouteOf(in.Seq, in.Vec, len(s.shards))].InsertRowAt(id, in)
	if ok {
		if id >= s.nextID {
			s.nextID = id + 1
		}
		s.publishLocked()
	}
	return ok
}

// ReserveIDs allocates n fresh global ids without installing rows. The
// segmented storage layer reserves ids first so WAL records can carry
// them; a crash between reservation and apply leaves a harmless id gap.
func (s *ShardedRelation) ReserveIDs(n int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = s.nextID
		s.nextID++
	}
	return ids
}

// shardOfIDLocked returns the index of the shard whose arena holds id
// (tombstoned or not), or -1. Caller holds mu.
func (s *ShardedRelation) shardOfIDLocked(id int) int {
	for i, r := range s.shards {
		if r.head.Load().find(id) != nil {
			return i
		}
	}
	return -1
}

// ShardOfID returns the shard index owning the given id, or -1 when no
// arena holds it. The storage layer routes delete/update WAL records
// with it so a row's tombstone lands in the segment that logged its
// insert.
func (s *ShardedRelation) ShardOfID(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardOfIDLocked(id)
}

// Delete tombstones the row with the given id; false when no visible
// row has it.
func (s *ShardedRelation) Delete(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardOfIDLocked(id)
	if sh < 0 || !s.shards[sh].Delete(id) {
		return false
	}
	s.publishLocked()
	return true
}

// Update replaces the row with the given id in one cross-shard commit:
// the old version is tombstoned in its owning shard and the new version
// (fresh global id) installed in the shard its sequence hashes to —
// possibly a different one. Readers see the old row or the new one,
// never both and never neither, because only the view publish at the
// end makes either side visible.
func (s *ShardedRelation) Update(id int, seq string, attrs map[string]string) (int, bool) {
	return s.UpdateRow(id, InsertRow{Seq: seq, Attrs: attrs})
}

// UpdateRow is Update carrying the full tuple width.
func (s *ShardedRelation) UpdateRow(id int, in InsertRow) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	newID := s.nextID
	if !s.updateLocked(id, newID, in) {
		return 0, false
	}
	s.nextID++
	s.publishLocked()
	return newID, true
}

// UpdateAt is Update under a caller-assigned replacement id.
func (s *ShardedRelation) UpdateAt(id, newID int, seq string, attrs map[string]string) bool {
	return s.UpdateRowAt(id, newID, InsertRow{Seq: seq, Attrs: attrs})
}

// UpdateRowAt is UpdateAt carrying the full tuple width.
func (s *ShardedRelation) UpdateRowAt(id, newID int, in InsertRow) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.updateLocked(id, newID, in) {
		return false
	}
	if newID >= s.nextID {
		s.nextID = newID + 1
	}
	s.publishLocked()
	return true
}

func (s *ShardedRelation) updateLocked(id, newID int, in InsertRow) bool {
	from := s.shardOfIDLocked(id)
	if from < 0 {
		return false
	}
	// newID must be fresh across ALL shards, checked before any shard
	// mutates: a collision discovered after the delete half would leave
	// the row tombstoned with no replacement while reporting failure.
	if s.shardOfIDLocked(newID) >= 0 {
		return false
	}
	to := RouteOf(in.Seq, in.Vec, len(s.shards))
	if from == to {
		return s.shards[from].UpdateRowAt(id, newID, in)
	}
	if !s.shards[from].Delete(id) {
		return false
	}
	return s.shards[to].InsertRowAt(newID, in)
}

// DumpState captures the sharded relation's durable state for a
// checkpoint: the visible tuples in global id order plus the global
// id-allocator position. Like Relation.DumpState, tombstoned rows are
// elided. The per-shard placement is NOT recorded — every row's shard
// satisfies RouteOf (the placement invariant every mutation maintains),
// so RebuildSharded re-derives it, and the dump format stays identical
// for sharded and plain relations.
func (s *ShardedRelation) DumpState() (rows []Tuple, nextID int) {
	s.mu.Lock()
	v := s.view.Load()
	nextID = s.nextID
	s.mu.Unlock()
	return v.Tuples(), nextID
}

// RebuildSharded constructs an n-shard relation from checkpointed
// state, routing every row to its hash shard and building each shard's
// arena in one pass (see Rebuild). nextID is clamped past every row.
func RebuildSharded(name string, n int, rows []Tuple, nextID int) *ShardedRelation {
	if n < 1 {
		n = 1
	}
	perShard := make([][]Tuple, n)
	for _, t := range rows {
		sh := RouteOf(t.Seq, t.Vec, n)
		perShard[sh] = append(perShard[sh], t)
		if t.ID >= nextID {
			nextID = t.ID + 1
		}
	}
	s := &ShardedRelation{name: name, shards: make([]*Relation, n), nextID: nextID}
	for i := range s.shards {
		s.shards[i] = Rebuild(fmt.Sprintf("%s/%d", name, i), perShard[i], 0)
	}
	s.view.Store(s.captureView())
	return s
}

// Compact forces tombstone compaction on every shard (for tests and
// operational tooling; each shard also self-compacts by policy).
func (s *ShardedRelation) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.shards {
		r.Compact()
	}
	s.publishLocked()
}

// Tombstones returns the dead rows still in the arenas.
func (s *ShardedRelation) Tombstones() int {
	v := s.View()
	n := 0
	for _, sn := range v.snaps {
		n += sn.h.dead
	}
	return n
}

// ensureShards builds (once) one index on every shard that lacks it and
// republishes the view so its snapshots carry the shared structures.
// Like the per-relation ensure functions this changes no statistics and
// bumps no version.
func (s *ShardedRelation) ensureShards(has func(*head) bool, ensure func(*Relation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	built := false
	for _, r := range s.shards {
		if !has(r.head.Load()) {
			ensure(r)
			built = true
		}
	}
	if built {
		s.view.Store(s.captureView())
	}
}

// EnsureLengthViews gives every shard an online-maintained
// length-ordered view.
func (s *ShardedRelation) EnsureLengthViews() {
	s.ensureShards(func(h *head) bool { return h.byLen != nil }, func(r *Relation) { r.LengthView() })
}

// EnsureVecViews gives every shard an online-maintained vector view
// over the given metric.
func (s *ShardedRelation) EnsureVecViews(m metric.Distance) {
	s.ensureShards(func(h *head) bool { return h.vvs[m.Name()] != nil }, func(r *Relation) { r.VecView(m) })
}

// ------------------------------------------------------------ view

// ShardView is a consistent cross-shard read view: one snapshot per
// shard, captured together at a commit boundary. All reads through a
// view see exactly the rows of one cross-shard commit, no matter how
// many commits land concurrently.
type ShardView struct {
	snaps []*Snapshot
}

// NumShards returns the number of shard snapshots in the view.
func (v *ShardView) NumShards() int { return len(v.snaps) }

// Snap returns the i-th shard's snapshot.
func (v *ShardView) Snap(i int) *Snapshot { return v.snaps[i] }

// Len returns the number of visible tuples across the view.
func (v *ShardView) Len() int {
	n := 0
	for _, s := range v.snaps {
		n += s.Len()
	}
	return n
}

// Tuple returns the visible tuple with the given id, searching every
// shard (ids are global; exactly one shard can hold a given id).
func (v *ShardView) Tuple(id int) (Tuple, bool) {
	for _, s := range v.snaps {
		if t, ok := s.Tuple(id); ok {
			return t, true
		}
	}
	return Tuple{}, false
}

// Tuples materialises the visible tuples in global id order — the same
// order an unsharded relation's scan produces, which is what makes
// sharded scan results mergeable back into the serial order.
func (v *ShardView) Tuples() []Tuple {
	// K-way merge over the shard cursors; each shard's arena is already
	// ascending in (global) id.
	cursors := make([]*Cursor, len(v.snaps))
	heads := make([]Tuple, len(v.snaps))
	ok := make([]bool, len(v.snaps))
	total := 0
	for i, s := range v.snaps {
		cursors[i] = s.Shard(0, 1)
		heads[i], ok[i] = cursors[i].Next()
		total += s.Len()
	}
	out := make([]Tuple, 0, total)
	for {
		best := -1
		for i := range heads {
			if ok[i] && (best < 0 || heads[i].ID < heads[best].ID) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, heads[best])
		heads[best], ok[best] = cursors[best].Next()
	}
}

// Stats merges the per-shard statistics into relation-level planner
// statistics. Exact for Count and AvgSeqLen; MaxSeqLen and VecDim
// inherit each shard's upper-bound semantics.
func (v *ShardView) Stats() Stats {
	var live, seqBytes, maxLen, vecRows, vecDim int
	for _, s := range v.snaps {
		h := s.h
		live += h.live
		seqBytes += h.seqBytes
		if h.maxLen > maxLen {
			maxLen = h.maxLen
		}
		vecRows += h.vecRows
		if h.vecDim > vecDim {
			vecDim = h.vecDim
		}
	}
	st := Stats{Count: live, MaxSeqLen: maxLen, VecCount: vecRows, VecDim: vecDim}
	if live > 0 {
		st.AvgSeqLen = float64(seqBytes) / float64(live)
	}
	return st
}
