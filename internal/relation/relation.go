// Package relation provides the database substrate of the framework:
// named relations of sequences. Following the paper we treat relations
// as (essentially) unary — sets of sequences — but tuples may carry
// auxiliary string attributes (source, date, ...) that queries can
// filter on with equality predicates.
//
// Relations are mutable with MVCC snapshot isolation. Each relation
// keeps an append-only arena of row versions plus a tombstone epoch per
// row; all other per-relation state (statistics, index references, the
// arena slice header itself) lives in an immutable head published
// through an atomic pointer. A Snapshot captures one head: readers pay
// a single atomic load, never take a lock, and never block writers.
// Writers serialize on the relation's mutex, build a successor head and
// publish it — a committed mutation is one pointer swap, so a reader
// sees either all of a commit or none of it.
//
// Visibility: a row is visible to a snapshot at epoch e iff it sits
// inside the snapshot's arena prefix (inserts after the snapshot lie
// beyond its slice length; equivalently, the commit that installed the
// row has an epoch <= e) and its tombstone epoch is > e (deletes at or
// before e hide it). Updates are delete+insert in one commit.
//
// The length-ordered view (LengthView, the access structure of every
// unit-cost string query), the VP-trees and — for the callers that
// still ask for them — the BK-tree and trie are maintained online:
// inserts extend the shared structure (safe for concurrent readers; see
// package index), deletes rely on the visibility filter, and compaction
// rebuilds both the arena and the structures once enough tombstones
// accumulate.
//
// Beyond the string sequence, tuples may carry a dense float-vector
// embedding (the "vec" column, a metric.Vector). Vectors ride the same
// MVCC arena, WAL records and text codec as sequences; continuous
// metrics (L2, cosine) query them through the same planner that serves
// edit distances, with VP-trees as the continuous analogue of the
// BK-tree.
package relation

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/metric"
)

// Tuple is one row of a relation.
type Tuple struct {
	ID    int
	Seq   string
	Vec   metric.Vector // optional embedding; nil when the row has none
	Attrs map[string]string
}

// Attr returns the named attribute ("" when absent). The built-in
// columns "id", "seq" and "vec" are also addressable; a vector renders
// in its canonical literal syntax.
func (t Tuple) Attr(name string) string {
	switch name {
	case "id":
		return strconv.Itoa(t.ID)
	case "seq":
		return t.Seq
	case "vec":
		if t.Vec == nil {
			return ""
		}
		return metric.Format(t.Vec)
	default:
		return t.Attrs[name]
	}
}

// aliveEpoch marks a row version that has not been deleted.
const aliveEpoch = ^uint64(0)

// Row is one immutable tuple version in the arena plus the commit epoch
// that installed it and its tombstone epoch. The tuple fields and born
// never change after publication; died is the only mutable word and is
// written exactly once (alive -> epoch).
type Row struct {
	Tuple
	born uint64
	died atomic.Uint64
}

// newRow returns a live row version installed by the commit at epoch
// born.
func newRow(id int, in InsertRow, born uint64) *Row {
	row := &Row{Tuple: Tuple{ID: id, Seq: in.Seq, Vec: in.Vec, Attrs: in.Attrs}, born: born}
	row.died.Store(aliveEpoch)
	return row
}

// head is a relation's published state. A head is immutable once
// published; every mutation (and every lazy index build) installs a
// successor. Copying the struct is cheap: the arena is a slice header
// and the alphabet histogram is 2KB.
type head struct {
	epoch    uint64 // commit counter; snapshots are keyed by it
	rows     []*Row // arena, ascending ID; shared tail-extended across heads
	nextID   int
	live     int      // visible rows at this epoch
	dead     int      // tombstoned rows still in the arena
	seqBytes int      // total sequence bytes across live rows
	maxLen   int      // upper bound on live sequence length (exact after compaction)
	vecRows  int      // visible rows carrying a vector
	vecDim   int      // upper bound on live vector dimension (exact after compaction)
	byteRows [256]int // live rows containing each byte (see Snapshot.Alphabet)

	bk    *index.BKTree
	trie  *index.Trie
	byLen *LengthView
	// vps maps metric name to the online-maintained VP-tree over that
	// metric. Like bk/trie/byLen the trees are shared tail-extended across
	// heads; the map itself is immutable once published (lazy builds
	// install a copied map into a successor head).
	vps map[string]*index.VPTree
}

// indexRow inserts a freshly-installed row into every online index.
// Caller holds the relation mutex (single-writer contract of the
// trees).
func (h *head) indexRow(row *Row) {
	if h.bk != nil {
		h.bk.Insert(row.ID, row.Seq)
	}
	if h.trie != nil {
		h.trie.Insert(row.ID, row.Seq)
	}
	if h.byLen != nil {
		h.byLen.insert(row)
	}
	if row.Vec != nil {
		for _, vp := range h.vps {
			vp.Insert(row.ID, row.Vec)
		}
	}
}

// find returns the arena row with the given id, tombstoned or not. Ids
// ascend strictly, so the row sits at or before position id-rows[0].ID
// — exactly there unless compaction (or a sparse id assignment) left
// gaps, which is the only case that pays the binary search.
func (h *head) find(id int) *Row {
	rows := h.rows
	if len(rows) == 0 || id < rows[0].ID {
		return nil
	}
	i := id - rows[0].ID
	if i >= len(rows) {
		i = len(rows) - 1
	}
	if rows[i].ID == id {
		return rows[i]
	}
	if rows[i].ID < id {
		return nil // above the last row
	}
	j := sort.Search(i, func(j int) bool { return rows[j].ID >= id })
	if j < i && rows[j].ID == id {
		return rows[j]
	}
	return nil
}

// addStats folds one live row into the head's statistics.
func (h *head) addStats(t Tuple) {
	seq := t.Seq
	h.live++
	h.seqBytes += len(seq)
	if len(seq) > h.maxLen {
		h.maxLen = len(seq)
	}
	if t.Vec != nil {
		h.vecRows++
		if len(t.Vec) > h.vecDim {
			h.vecDim = len(t.Vec)
		}
	}
	var seen [256]bool
	for i := 0; i < len(seq); i++ {
		if !seen[seq[i]] {
			seen[seq[i]] = true
			h.byteRows[seq[i]]++
		}
	}
}

// dropStats removes one live row from the statistics. maxLen and
// vecDim are left as upper bounds; compaction restores them exactly.
func (h *head) dropStats(t Tuple) {
	seq := t.Seq
	h.live--
	h.dead++
	h.seqBytes -= len(seq)
	if t.Vec != nil {
		h.vecRows--
	}
	var seen [256]bool
	for i := 0; i < len(seq); i++ {
		if !seen[seq[i]] {
			seen[seq[i]] = true
			h.byteRows[seq[i]]--
		}
	}
}

// Table is the mutable relation API shared by Relation (a single MVCC
// arena) and ShardedRelation (a hash-partitioned set of arenas). The
// query engine and the storage layer address catalog entries through
// this interface so the same plans, DML statements and WAL records work
// against either physical layout.
//
// InsertAt and UpdateAt are storage-layer primitives: they install rows
// under caller-assigned ids (segmented-WAL replay and reserved-id
// commits need them) and expect globally fresh ids.
//
// The Row-variant methods (InsertRowAt, UpdateRow, UpdateRowAt) are the
// full-width forms carrying the vector column; the string-only methods
// are wrappers kept for the sequence-only call sites.
type Table interface {
	Name() string
	Len() int
	Stats() Stats
	Version() uint64
	Tuple(id int) (Tuple, bool)
	Tuples() []Tuple
	Insert(seq string, attrs map[string]string) int
	InsertBatch(rows []InsertRow) []int
	InsertAt(id int, seq string, attrs map[string]string) bool
	InsertRowAt(id int, row InsertRow) bool
	Delete(id int) bool
	Update(id int, seq string, attrs map[string]string) (int, bool)
	UpdateRow(id int, row InsertRow) (int, bool)
	UpdateAt(id, newID int, seq string, attrs map[string]string) bool
	UpdateRowAt(id, newID int, row InsertRow) bool
}

var (
	_ Table = (*Relation)(nil)
	_ Table = (*ShardedRelation)(nil)
)

// Relation is a named collection of tuples with MVCC snapshots and
// online-maintained indexes.
type Relation struct {
	name    string
	mu      sync.Mutex // serializes mutations, compaction and index builds
	head    atomic.Pointer[head]
	version atomic.Uint64 // bumped on every mutation; feeds Catalog.StatsVersion
}

// Stats summarises a relation for the cost-based query planner.
type Stats struct {
	Count     int     // number of tuples
	AvgSeqLen float64 // mean sequence length
	MaxSeqLen int     // longest sequence
	VecCount  int     // tuples carrying a vector
	VecDim    int     // largest vector dimension (upper bound between compactions)
}

// Compaction policy: rebuild the arena and indexes once at least
// compactMinDead rows are tombstoned AND tombstones make up more than
// compactDeadFrac of the arena. The floor keeps small churn cheap; the
// fraction bounds wasted index traversal on large relations.
const (
	compactMinDead  = 64
	compactDeadFrac = 0.25
)

// New returns an empty relation.
func New(name string) *Relation {
	r := &Relation{name: name}
	r.head.Store(&head{})
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Len returns the number of visible tuples.
func (r *Relation) Len() int { return r.head.Load().live }

// Version is a mutation counter: it changes whenever the relation's
// contents (and therefore its statistics) change. Plan caches read it
// on every query, so it is a lock-free atomic — the serving hot path
// must never take a relation's exclusive mutex.
func (r *Relation) Version() uint64 { return r.version.Load() }

// publish installs a successor head and bumps the mutation counter.
// Caller holds mu.
func (r *Relation) publish(h *head) {
	r.head.Store(h)
	r.version.Add(1)
}

// Insert appends a sequence-only tuple and returns its id. Built
// indexes are maintained online; the new entry becomes visible to
// snapshots taken after the commit.
func (r *Relation) Insert(seq string, attrs map[string]string) int {
	return r.InsertOne(InsertRow{Seq: seq, Attrs: attrs})
}

// InsertOne appends one full-width tuple (sequence, optional vector,
// attributes) in its own commit and returns its id.
func (r *Relation) InsertOne(in InsertRow) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	nh := *h
	id := nh.nextID
	nh.epoch++
	row := newRow(id, in, nh.epoch)
	nh.rows = append(nh.rows, row)
	nh.nextID++
	nh.addStats(row.Tuple)
	nh.indexRow(row)
	r.publish(&nh)
	return id
}

// InsertRow is one input row of InsertBatch: the full tuple width
// minus the id.
type InsertRow struct {
	Seq   string
	Vec   metric.Vector
	Attrs map[string]string
}

// InsertBatch appends several tuples in ONE commit: a single successor
// head carries every row, so the batch becomes visible atomically and
// the per-commit costs (head copy, histogram copy, publish, version
// bump) are paid once instead of per row. Returns the assigned ids.
func (r *Relation) InsertBatch(rows []InsertRow) []int {
	if len(rows) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	nh := *h
	nh.epoch++
	ids := make([]int, len(rows))
	for i, in := range rows {
		id := nh.nextID
		row := newRow(id, in, nh.epoch)
		nh.rows = append(nh.rows, row)
		nh.nextID++
		nh.addStats(row.Tuple)
		nh.indexRow(row)
		ids[i] = id
	}
	r.publish(&nh)
	return ids
}

// InsertAt appends a tuple under a caller-assigned id; false when the
// arena already holds the id. Sharded relations route rows here with
// globally-assigned ids, and segmented-WAL replay re-installs rows
// under their logged ids. Ids normally arrive in ascending order (the
// id allocator is monotonic); an out-of-order id falls back to a
// copy-and-sort of the arena so find()'s binary search stays valid.
func (r *Relation) InsertAt(id int, seq string, attrs map[string]string) bool {
	return r.InsertRowAt(id, InsertRow{Seq: seq, Attrs: attrs})
}

// InsertRowAt is InsertAt carrying the full tuple width.
func (r *Relation) InsertRowAt(id int, in InsertRow) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.insertAtLocked(id, in)
}

func (r *Relation) insertAtLocked(id int, in InsertRow) bool {
	h := r.head.Load()
	if h.find(id) != nil {
		return false
	}
	nh := *h
	nh.epoch++
	row := newRow(id, in, nh.epoch)
	if n := len(nh.rows); n > 0 && nh.rows[n-1].ID > id {
		// Out-of-order id: older heads share the arena backing array, so
		// re-sorting must copy rather than mutate in place.
		rows := make([]*Row, 0, n+1)
		rows = append(rows, nh.rows...)
		rows = append(rows, row)
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
		nh.rows = rows
	} else {
		nh.rows = append(nh.rows, row)
	}
	if id >= nh.nextID {
		nh.nextID = id + 1
	}
	nh.addStats(row.Tuple)
	nh.indexRow(row)
	r.publish(&nh)
	return true
}

// InsertBatchAt is InsertAt over several rows in ONE commit: ids[i]
// names rows[i]. Rows whose id is already taken — in the arena or
// earlier in the same batch — are skipped, matching InsertAt's
// single-row contract; the installed ids are returned in batch order.
// Like InsertBatch the whole batch becomes visible atomically.
func (r *Relation) InsertBatchAt(ids []int, rows []InsertRow) []int {
	if len(rows) == 0 || len(ids) != len(rows) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	nh := *h
	nh.epoch++
	sorted := true
	last := -1
	if n := len(nh.rows); n > 0 {
		last = nh.rows[n-1].ID
	}
	installed := make([]int, 0, len(rows))
	var inBatch map[int]bool
	for i, in := range rows {
		id := ids[i]
		if inBatch[id] || h.find(id) != nil {
			continue
		}
		if inBatch == nil {
			inBatch = make(map[int]bool, len(rows))
		}
		inBatch[id] = true
		installed = append(installed, id)
		if id <= last {
			sorted = false
		}
		last = id
		row := newRow(id, in, nh.epoch)
		nh.rows = append(nh.rows, row)
		if id >= nh.nextID {
			nh.nextID = id + 1
		}
		nh.addStats(row.Tuple)
		nh.indexRow(row)
	}
	if len(installed) == 0 {
		return nil
	}
	if !sorted {
		rows := make([]*Row, 0, len(nh.rows))
		rows = append(rows, nh.rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
		nh.rows = rows
	}
	r.publish(&nh)
	return installed
}

// Delete tombstones the row with the given id; false when no visible
// row has it. The index entries stay behind (filtered by visibility)
// until compaction rebuilds the structures.
func (r *Relation) Delete(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	row := h.find(id)
	if row == nil || row.died.Load() != aliveEpoch {
		return false
	}
	nh := *h
	nh.epoch++
	// Store the tombstone before publishing the head: a snapshot of the
	// new head must already see the row dead.
	row.died.Store(nh.epoch)
	nh.dropStats(row.Tuple)
	r.publish(&nh)
	r.maybeCompact()
	return true
}

// Update replaces the row with the given id in one commit: the old
// version is tombstoned and a fresh version (new id) inserted, so
// every snapshot sees either the old row or the new one, never both.
// Returns the new id; false when no visible row has the old id.
func (r *Relation) Update(id int, seq string, attrs map[string]string) (int, bool) {
	return r.UpdateRow(id, InsertRow{Seq: seq, Attrs: attrs})
}

// UpdateRow is Update carrying the full tuple width.
func (r *Relation) UpdateRow(id int, in InsertRow) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	row := h.find(id)
	if row == nil || row.died.Load() != aliveEpoch {
		return 0, false
	}
	nh := *h
	nh.epoch++
	row.died.Store(nh.epoch)
	nh.dropStats(row.Tuple)
	newID := nh.nextID
	nrow := newRow(newID, in, nh.epoch)
	nh.rows = append(nh.rows, nrow)
	nh.nextID++
	nh.addStats(nrow.Tuple)
	nh.indexRow(nrow)
	r.publish(&nh)
	r.maybeCompact()
	return newID, true
}

// UpdateAt is Update with a caller-assigned replacement id: the old
// version is tombstoned and the new version installed under newID in
// one commit. Sharded relations allocate newID globally; segmented-WAL
// replay re-applies updates under their logged ids.
func (r *Relation) UpdateAt(id, newID int, seq string, attrs map[string]string) bool {
	return r.UpdateRowAt(id, newID, InsertRow{Seq: seq, Attrs: attrs})
}

// UpdateRowAt is UpdateAt carrying the full tuple width.
func (r *Relation) UpdateRowAt(id, newID int, in InsertRow) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	row := h.find(id)
	if row == nil || row.died.Load() != aliveEpoch || h.find(newID) != nil {
		return false
	}
	nh := *h
	nh.epoch++
	row.died.Store(nh.epoch)
	nh.dropStats(row.Tuple)
	nrow := newRow(newID, in, nh.epoch)
	if n := len(nh.rows); n > 0 && nh.rows[n-1].ID > newID {
		rows := make([]*Row, 0, n+1)
		rows = append(rows, nh.rows...)
		rows = append(rows, nrow)
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
		nh.rows = rows
	} else {
		nh.rows = append(nh.rows, nrow)
	}
	if newID >= nh.nextID {
		nh.nextID = newID + 1
	}
	nh.addStats(nrow.Tuple)
	nh.indexRow(nrow)
	r.publish(&nh)
	r.maybeCompact()
	return true
}

// maybeCompact runs compaction when the tombstone policy triggers.
// Caller holds mu.
func (r *Relation) maybeCompact() {
	h := r.head.Load()
	if h.dead < compactMinDead || float64(h.dead) < compactDeadFrac*float64(h.live+h.dead) {
		return
	}
	r.compactLocked()
}

// Compact forces a tombstone compaction: dead rows leave the arena and
// any built indexes are rebuilt from the survivors. Snapshots taken
// earlier keep the pre-compaction head (arena and indexes), so their
// results are unaffected.
func (r *Relation) Compact() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.compactLocked()
}

func (r *Relation) compactLocked() {
	start := time.Now()
	defer func() {
		mCompactions.Inc()
		mCompactSeconds.Observe(time.Since(start).Seconds())
	}()
	h := r.head.Load()
	nh := head{epoch: h.epoch, nextID: h.nextID}
	nh.rows = make([]*Row, 0, h.live)
	for _, row := range h.rows {
		// Every tombstone epoch is <= the current epoch, so any dead row
		// is invisible to all future snapshots and can be dropped; old
		// snapshots hold the old head.
		if row.died.Load() == aliveEpoch {
			nh.rows = append(nh.rows, row)
			nh.addStats(row.Tuple)
		}
	}
	if h.bk != nil {
		nh.bk = index.NewBKTree()
		for _, row := range nh.rows {
			nh.bk.Insert(row.ID, row.Seq)
		}
	}
	if h.trie != nil {
		nh.trie = index.NewTrie()
		for _, row := range nh.rows {
			nh.trie.Insert(row.ID, row.Seq)
		}
	}
	if h.byLen != nil {
		nh.byLen = buildLengthView(nh.rows)
	}
	if len(h.vps) > 0 {
		nh.vps = make(map[string]*index.VPTree, len(h.vps))
		for name, old := range h.vps {
			nh.vps[name] = buildVPTree(old.Metric(), nh.rows)
		}
	}
	// Publish without a version bump when nothing was dropped? Keep the
	// bump: compaction changes MaxSeqLen back to exact, which is a
	// statistics change the planner may care about.
	r.publish(&nh)
}

// Tombstones returns the number of dead rows still in the arena (for
// metrics and compaction tests).
func (r *Relation) Tombstones() int { return r.head.Load().dead }

// Snapshot returns a consistent read view of the relation. Snapshots
// are cheap (one atomic load), never expire, and need no release — the
// garbage collector reclaims superseded heads once the last snapshot
// referencing them is gone.
func (r *Relation) Snapshot() *Snapshot {
	return &Snapshot{h: r.head.Load()}
}

// Tuples returns the visible tuples in id order. O(n) materialisation —
// convenience for loading, storing and tests; query execution iterates
// snapshots instead.
func (r *Relation) Tuples() []Tuple { return r.Snapshot().Tuples() }

// Stats returns planner statistics; maintained incrementally, so this
// is lock-free and O(alphabet).
func (r *Relation) Stats() Stats { return r.Snapshot().Stats() }

// Tuple returns the visible tuple with the given id.
func (r *Relation) Tuple(id int) (Tuple, bool) { return r.Snapshot().Tuple(id) }

// Entries adapts the visible tuples for the index package.
func (r *Relation) Entries() []index.Entry {
	ts := r.Tuples()
	out := make([]index.Entry, len(ts))
	for i, t := range ts {
		out[i] = index.Entry{ID: t.ID, S: t.Seq}
	}
	return out
}

// ensureIndex installs a lazily-built index into a successor head.
// build receives the full arena (tombstoned rows included — visibility
// is filtered at read time) and must return the new head field values.
func (r *Relation) ensureBKTree() *index.BKTree {
	if h := r.head.Load(); h.bk != nil {
		return h.bk
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if h.bk != nil {
		return h.bk
	}
	bk := buildBKTree(h.rows)
	nh := *h
	nh.bk = bk
	// Publish without a version bump: building an index changes no
	// statistics and must not invalidate cached plans.
	r.head.Store(&nh)
	return bk
}

func (r *Relation) ensureTrie() *index.Trie {
	if h := r.head.Load(); h.trie != nil {
		return h.trie
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if h.trie != nil {
		return h.trie
	}
	tr := buildTrie(h.rows)
	nh := *h
	nh.trie = tr
	r.head.Store(&nh)
	return tr
}

func buildBKTree(rows []*Row) *index.BKTree {
	bk := index.NewBKTree()
	for _, row := range rows {
		bk.Insert(row.ID, row.Seq)
	}
	return bk
}

func buildVPTree(m metric.Distance, rows []*Row) *index.VPTree {
	vp := index.NewVPTree(m)
	for _, row := range rows {
		if row.Vec != nil {
			vp.Insert(row.ID, row.Vec)
		}
	}
	return vp
}

// ensureVPTree installs a lazily-built VP-tree over the given metric
// into a successor head; once built the tree is maintained online by
// the insert paths and rebuilt by compaction. Like ensureBKTree the
// publish carries no version bump — building an index changes no
// statistics and must not invalidate cached plans.
func (r *Relation) ensureVPTree(m metric.Distance) *index.VPTree {
	if h := r.head.Load(); h.vps[m.Name()] != nil {
		return h.vps[m.Name()]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if vp := h.vps[m.Name()]; vp != nil {
		return vp
	}
	vp := buildVPTree(m, h.rows)
	nh := *h
	nvps := make(map[string]*index.VPTree, len(h.vps)+1)
	for k, v := range h.vps {
		nvps[k] = v
	}
	nvps[m.Name()] = vp
	nh.vps = nvps
	r.head.Store(&nh)
	return vp
}

// VPTree returns the relation's VP-tree over the given metric, building
// it on first use; once built it is maintained online like the BK-tree.
// The metric should carry the triangle-inequality capability — the
// planner only routes triangular metrics here.
func (r *Relation) VPTree(m metric.Distance) *index.VPTree { return r.ensureVPTree(m) }

func buildTrie(rows []*Row) *index.Trie {
	tr := index.NewTrie()
	for _, row := range rows {
		tr.Insert(row.ID, row.Seq)
	}
	return tr
}

// BKTree returns the relation's BK-tree, building it on first use; once
// built it is maintained online by Insert/Update and rebuilt by
// compaction. The query engine never builds one: the tree serves the
// experiments, the examples and the benchmark's index probes.
func (r *Relation) BKTree() *index.BKTree { return r.ensureBKTree() }

// Trie returns the relation's trie index, building it on first use;
// maintained online like the BK-tree and, like it, unused by the query
// engine.
func (r *Relation) Trie() *index.Trie { return r.ensureTrie() }

// LengthView returns the relation's length-ordered view, building it on
// first use; maintained online like the BK-tree (and, like it, installed
// without a version bump).
func (r *Relation) LengthView() *LengthView {
	if h := r.head.Load(); h.byLen != nil {
		return h.byLen
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if h.byLen != nil {
		return h.byLen
	}
	nh := *h
	nh.byLen = buildLengthView(h.rows)
	r.head.Store(&nh)
	return nh.byLen
}

// ------------------------------------------------------------ snapshot

// Snapshot is a consistent, immutable read view of a relation: the head
// at one commit epoch. All reads through a snapshot see exactly the
// rows committed at its epoch, no matter how many commits land
// concurrently.
type Snapshot struct {
	h *head
}

// Epoch returns the commit epoch the snapshot reads at.
func (s *Snapshot) Epoch() uint64 { return s.h.epoch }

// Len returns the number of visible tuples.
func (s *Snapshot) Len() int { return s.h.live }

// visible reports whether the arena row is visible at this snapshot.
func (s *Snapshot) visible(row *Row) bool { return row.died.Load() > s.h.epoch }

// Tuple returns the visible tuple with the given id. Ids of rows
// inserted after the snapshot, tombstoned before it, or compacted away
// all miss.
func (s *Snapshot) Tuple(id int) (Tuple, bool) {
	row := s.h.find(id)
	if row == nil || !s.visible(row) {
		return Tuple{}, false
	}
	return row.Tuple, true
}

// Tuples materialises the visible tuples in id order.
func (s *Snapshot) Tuples() []Tuple {
	out := make([]Tuple, 0, s.h.live)
	for _, row := range s.h.rows {
		if s.visible(row) {
			out = append(out, row.Tuple)
		}
	}
	return out
}

// Stats returns the planner statistics at this snapshot.
func (s *Snapshot) Stats() Stats {
	h := s.h
	st := Stats{Count: h.live, MaxSeqLen: h.maxLen, VecCount: h.vecRows, VecDim: h.vecDim}
	if h.live > 0 {
		st.AvgSeqLen = float64(h.seqBytes) / float64(h.live)
	}
	return st
}

// Shard returns a cursor over the i-th of n contiguous arena partitions
// (i in [0,n)). Partition bounds are arena positions, so concatenating
// the shards in order reproduces the full visible scan order — the
// invariant deterministic parallel scans rely on.
func (s *Snapshot) Shard(i, n int) *Cursor {
	if n <= 0 || i < 0 || i >= n {
		return &Cursor{}
	}
	lo := i * len(s.h.rows) / n
	hi := (i + 1) * len(s.h.rows) / n
	// dead == 0 means no arena row carries a tombstone at this head, and
	// tombstones written by later commits get epochs above ours — so the
	// whole cursor range is visible and NextBlock can skip the per-row
	// epoch check for the entire run.
	return &Cursor{rows: s.h.rows[lo:hi], epoch: s.h.epoch, allLive: s.h.dead == 0}
}

// VPTree returns a VP-tree over the given metric whose entries form a
// superset of the rows visible at this snapshot; callers filter matches
// through Visible. Usually this is the relation's shared online-
// maintained tree; when none was built at snapshot time a private one
// is built over the snapshot's own arena (correct even if the relation
// compacted since).
func (s *Snapshot) VPTree(m metric.Distance) *index.VPTree {
	if vp := s.h.vps[m.Name()]; vp != nil {
		return vp
	}
	return buildVPTree(m, s.h.rows)
}

// LengthView returns a length-ordered view whose entries form a
// superset of the rows visible at this snapshot; callers filter them
// through VisibleRow. Like VPTree it is the shared online-maintained
// view when one was built, a private one over the snapshot's arena
// otherwise.
func (s *Snapshot) LengthView() *LengthView {
	if s.h.byLen != nil {
		return s.h.byLen
	}
	return buildLengthView(s.h.rows)
}

// Alphabet returns, in ascending order, every byte that occurs in some
// row visible at this snapshot.
func (s *Snapshot) Alphabet() string {
	var b []byte
	for c, n := range s.h.byteRows {
		if n > 0 {
			b = append(b, byte(c))
		}
	}
	return string(b)
}

// VisibleRow reports whether a row of this relation's arena — as handed
// out by a LengthView — is visible at this snapshot: installed by a
// commit at or before its epoch and not tombstoned by one.
func (s *Snapshot) VisibleRow(row *Row) bool {
	return row.born <= s.h.epoch && row.died.Load() > s.h.epoch
}

// Visible reports whether the given id is visible at this snapshot —
// the filter index-backed access paths apply to their matches.
func (s *Snapshot) Visible(id int) bool {
	row := s.h.find(id)
	return row != nil && s.visible(row)
}

// Cursor iterates the visible tuples of one snapshot shard.
type Cursor struct {
	rows    []*Row
	epoch   uint64
	allLive bool // no tombstones in the arena at this epoch: skip checks
	pos     int
}

// Next returns the next visible tuple; ok is false at the end.
func (c *Cursor) Next() (Tuple, bool) {
	for c.pos < len(c.rows) {
		row := c.rows[c.pos]
		c.pos++
		if row.died.Load() > c.epoch {
			return row.Tuple, true
		}
	}
	return Tuple{}, false
}

// Block is a column-oriented batch of visible tuples — the unit the
// vectorized execution engine pulls. The four slices are parallel: row
// i is (IDs[i], Seqs[i], Vecs[i], Attrs[i]); Vecs[i] is nil for rows
// without an embedding.
type Block struct {
	IDs   []int
	Seqs  []string
	Vecs  []metric.Vector
	Attrs []map[string]string
}

// Reset empties the block, keeping capacity.
func (b *Block) Reset() {
	b.IDs, b.Seqs, b.Vecs, b.Attrs = b.IDs[:0], b.Seqs[:0], b.Vecs[:0], b.Attrs[:0]
}

// Append adds one tuple to the block.
func (b *Block) Append(id int, seq string, vec metric.Vector, attrs map[string]string) {
	b.IDs = append(b.IDs, id)
	b.Seqs = append(b.Seqs, seq)
	b.Vecs = append(b.Vecs, vec)
	b.Attrs = append(b.Attrs, attrs)
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.IDs) }

// Tuple returns row i of the block.
func (b *Block) Tuple(i int) Tuple {
	return Tuple{ID: b.IDs[i], Seq: b.Seqs[i], Vec: b.Vecs[i], Attrs: b.Attrs[i]}
}

// NextBlock fills the block with up to max visible tuples and returns
// how many it produced (0 at the end of the shard). The batch engine's
// leaf: one call amortizes the per-row cursor overhead across the whole
// block, and when the snapshot carries no tombstones at all (the common
// append-only regime) the visibility check is skipped for the entire
// arena run instead of being paid per row.
func (c *Cursor) NextBlock(b *Block, max int) int {
	b.Reset()
	if max <= 0 {
		return 0
	}
	if c.allLive {
		end := c.pos + max
		if end > len(c.rows) {
			end = len(c.rows)
		}
		for _, row := range c.rows[c.pos:end] {
			b.Append(row.ID, row.Seq, row.Vec, row.Attrs)
		}
		n := end - c.pos
		c.pos = end
		return n
	}
	n := 0
	for c.pos < len(c.rows) && n < max {
		row := c.rows[c.pos]
		c.pos++
		if row.died.Load() > c.epoch {
			b.Append(row.ID, row.Seq, row.Vec, row.Attrs)
			n++
		}
	}
	return n
}

// ------------------------------------------------------------- storage

// Store writes the relation in the text codec: one tuple per line,
// "seq TAB vec=[...] TAB k=v TAB k=v...". IDs are positional and not
// stored. The vec token — always first when present — carries the
// canonical vector literal, whose shortest-round-trip formatting makes
// Store/Load bit-exact for the embedding column; "vec" is therefore a
// reserved column name that cannot appear as a plain attribute.
func (r *Relation) Store(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range r.Tuples() {
		if strings.ContainsAny(t.Seq, "\t\n") {
			return fmt.Errorf("relation: sequence %q contains tab/newline; not representable", t.Seq)
		}
		if _, err := bw.WriteString(t.Seq); err != nil {
			return err
		}
		if t.Vec != nil {
			if _, err := fmt.Fprintf(bw, "\tvec=%s", metric.Format(t.Vec)); err != nil {
				return err
			}
		}
		keys := make([]string, 0, len(t.Attrs))
		for k := range t.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k == "vec" {
				return fmt.Errorf("relation: attribute name %q is reserved for the vector column", k)
			}
			if _, err := fmt.Fprintf(bw, "\t%s=%s", k, t.Attrs[k]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpState captures the relation's durable state for a checkpoint:
// the visible tuples in ascending id order and the id-allocator
// position. Tombstoned rows are elided — a rebuild from the dump is
// equivalent to a fully-compacted copy of the relation, which is
// observably identical (snapshots filter tombstones anyway) and
// strictly smaller on disk. One atomic head load; never blocks writers.
func (r *Relation) DumpState() (rows []Tuple, nextID int) {
	h := r.head.Load()
	rows = make([]Tuple, 0, h.live)
	for _, row := range h.rows {
		if row.died.Load() > h.epoch {
			rows = append(rows, row.Tuple)
		}
	}
	return rows, h.nextID
}

// Rebuild constructs a relation directly from checkpointed state: one
// arena allocation, statistics folded in a single pass, no per-row
// head publishes and no index builds (indexes rebuild lazily on first
// use, exactly as after a compaction). Rows must be unique by id;
// out-of-order input is sorted. nextID is clamped up so it is always
// past every rebuilt row.
func Rebuild(name string, rows []Tuple, nextID int) *Relation {
	r := New(name)
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID }) {
		rows = append([]Tuple(nil), rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	}
	h := head{epoch: 1, nextID: nextID}
	h.rows = make([]*Row, len(rows))
	for i, t := range rows {
		row := newRow(t.ID, InsertRow{Seq: t.Seq, Vec: t.Vec, Attrs: t.Attrs}, h.epoch)
		h.rows[i] = row
		h.addStats(t)
		if t.ID >= h.nextID {
			h.nextID = t.ID + 1
		}
	}
	r.head.Store(&h)
	return r
}

// Load reads a relation in the Store codec. Lines starting with '#' and
// blank lines are skipped.
func Load(name string, rd io.Reader) (*Relation, error) {
	r := New(name)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		var attrs map[string]string
		var vec metric.Vector
		for _, p := range parts[1:] {
			eq := strings.IndexByte(p, '=')
			if eq < 0 {
				return nil, fmt.Errorf("relation %s: line %d: bad attribute %q", name, line, p)
			}
			if p[:eq] == "vec" {
				v, err := metric.Parse(p[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("relation %s: line %d: %v", name, line, err)
				}
				vec = v
				continue
			}
			if attrs == nil {
				attrs = make(map[string]string)
			}
			attrs[p[:eq]] = p[eq+1:]
		}
		r.InsertOne(InsertRow{Seq: parts[0], Vec: vec, Attrs: attrs})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return r, nil
}

// ------------------------------------------------------------- catalog

// Catalog is a named set of tables — the database the query engine
// runs against. Entries are plain Relations or ShardedRelations; both
// are addressed through the Table interface.
type Catalog struct {
	mu      sync.RWMutex
	version atomic.Uint64 // bumped on Add/replace
	rels    map[string]Table

	// Shard-signature cache: the signature only changes when the
	// catalog's membership does (version bump), and the serving hot
	// path reads it on every query, so it is computed once per catalog
	// version instead of per request.
	sigMu      sync.Mutex
	sigVersion uint64
	sig        string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{rels: make(map[string]Table)} }

// Add registers a table, replacing any previous one with the name.
func (c *Catalog) Add(t Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version.Add(1)
	c.rels[t.Name()] = t
}

// StatsVersion summarises the mutation state of the catalog and every
// registered relation. Any Add and any committed mutation of a
// registered relation changes the value, so cached query plans keyed on
// it are invalidated the moment the statistics they were costed against
// go stale. The combination is order-independent (relation versions are
// summed) because map iteration order is not deterministic. It runs on
// every query, so it takes only the catalog's shared lock plus atomic
// loads — no per-relation mutexes.
func (c *Catalog) StatsVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := c.version.Load() << 32
	for _, r := range c.rels {
		v += r.Version()
	}
	return v
}

// Lookup returns the named table — plain or sharded.
func (c *Catalog) Lookup(name string) (Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.rels[name]
	return t, ok
}

// Get returns the named table when it is a plain (unsharded) Relation;
// callers that can serve any physical layout use Lookup instead.
func (c *Catalog) Get(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[name].(*Relation)
	return r, ok
}

// ShardSignature summarises the shard topology of the catalog as
// "name=shards" pairs, sorted by name (plain relations count as one
// shard). Plan-cache keys and prepared-query decision keys embed it, so
// replacing a table with a differently-sharded layout — which changes
// every physical plan over it — can never be served a stale plan, even
// if the statistics version were to collide.
func (c *Catalog) ShardSignature() string {
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	// Version 0 means no Add ever ran: the empty signature the zero
	// value carries is already correct.
	if c.sigVersion == c.version.Load() {
		return c.sig
	}
	c.mu.RLock()
	// Re-read under the catalog lock: Add bumps the version while
	// holding it, so this (version, membership) pair is consistent.
	v := c.version.Load()
	names := make([]string, 0, len(c.rels))
	for n := range c.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		shards := 1
		if sh, ok := c.rels[n].(*ShardedRelation); ok {
			shards = sh.NumShards()
		}
		fmt.Fprintf(&b, "%s=%d", n, shards)
	}
	c.mu.RUnlock()
	c.sigVersion, c.sig = v, b.String()
	return c.sig
}

// Names returns the registered relation names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
