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
// unit-cost string query), the vector views (VecView, the access
// structure of every vector query under a triangular metric) and — for
// the callers that still ask for them — the BK-tree, trie and VP-trees
// are maintained online: inserts extend the shared structure (safe for
// concurrent readers; see package index), deletes rely on the
// visibility filter, and compaction rebuilds both the arena and the
// structures once enough tombstones accumulate.
//
// Beyond the string sequence, tuples may carry a dense float-vector
// embedding (the "vec" column, a metric.Vector). Vectors ride the same
// MVCC arena, WAL records and text codec as sequences; continuous
// metrics (L2, cosine) query them through the same planner that serves
// edit distances, with the vector view as the continuous analogue of
// the length view.
package relation

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
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
	// vvs maps metric name to the vector view over that metric, under the
	// same sharing rules; an insert that rebuilds a view installs a copied
	// map.
	vvs map[string]*VecView
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
	if row.Vec == nil {
		return
	}
	for _, vp := range h.vps {
		vp.Insert(row.ID, row.Vec)
	}
	var stale []string
	for name, vv := range h.vvs {
		if vv.insert(row) {
			stale = append(stale, name)
		}
	}
	if stale != nil {
		vvs := maps.Clone(h.vvs)
		for _, name := range stale {
			vvs[name] = vvs[name].rebuilt(h.rows)
		}
		h.vvs = vvs
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

// Relation is a named collection of tuples with MVCC snapshots and
// online-maintained indexes.
type Relation struct {
	name    string
	mu      sync.Mutex // serializes mutations, compaction and index builds
	head    atomic.Pointer[head]
	version atomic.Uint64 // bumped on every mutation
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
// contents (and therefore its statistics) change. It is a lock-free
// atomic, so a metrics scrape (simqd's simq_snapshot_epoch) never takes
// a relation's exclusive mutex.
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
	if len(h.vvs) > 0 {
		nh.vvs = make(map[string]*VecView, len(h.vvs))
		for name, old := range h.vvs {
			nh.vvs[name] = old.rebuilt(nh.rows)
		}
	}
	// Publish with a version bump even when nothing was dropped:
	// compaction changes MaxSeqLen back to exact, a statistics change.
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
	// statistics.
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
// statistics.
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
// it on first use; once built it is maintained online like the BK-tree
// and, like it, unused by the query engine, which reads the VecView.
// The metric must satisfy the triangle inequality (l2; not cosine).
func (r *Relation) VPTree(m metric.Distance) *index.VPTree { return r.ensureVPTree(m) }

// VecView returns the relation's vector view over the metric
// registered under m's name (over m itself when the name is not
// registered), building it on first use; maintained online like the
// length view (and, like it, installed without a version bump). The
// view prunes by the distance a metric.Pruner names and is flat for any
// other metric. A view serves only the registration it was built
// under: once metric.Register replaces the name's metric, the next call
// builds a new view.
func (r *Relation) VecView(m metric.Distance) *VecView {
	m, gen := viewMetric(m)
	if v := r.head.Load().vvs[m.Name()]; v != nil && v.gen == gen {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if v := h.vvs[m.Name()]; v != nil && v.gen == gen {
		return v
	}
	v := buildVecView(m, gen, h.rows)
	nh := *h
	nh.vvs = maps.Clone(h.vvs)
	if nh.vvs == nil {
		nh.vvs = map[string]*VecView{}
	}
	nh.vvs[m.Name()] = v
	r.head.Store(&nh)
	return v
}

// viewMetric resolves the metric a vector view over m's name is built
// and served under, with its registration generation: the metric
// registered under the name now, or m itself, generation 0, when none
// is. Taking the metric and its generation from the registry together
// keeps a statement planned just before a re-registration from
// installing a view of the old metric under the new generation.
func viewMetric(m metric.Distance) (metric.Distance, uint64) {
	if cur, gen, ok := metric.Registration(m.Name()); ok {
		return cur, gen
	}
	return m, 0
}

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
	return s.cursor(i*len(s.h.rows)/n, (i+1)*len(s.h.rows)/n)
}

// Part returns a cursor over the arena positions from fraction lo to
// fraction hi of the arena (0 <= lo <= hi <= 1), for partitions of
// unequal sizes: parts cut at the same fractions tile the arena, so
// concatenating them in order reproduces the full visible scan order,
// as Shard's do.
func (s *Snapshot) Part(lo, hi float64) *Cursor {
	n := float64(len(s.h.rows))
	return s.cursor(int(lo*n), int(hi*n))
}

// cursor returns a cursor over the arena positions [lo, hi).
func (s *Snapshot) cursor(lo, hi int) *Cursor {
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

// VecWalk walks the vector view over the metric registered under m's
// name (see Relation.VecView) that this snapshot's head carries, or,
// when none was built by then under that registration, a private one
// over the snapshot's arena, built for this walk alone: callers that
// walk often ensure the shared view first (Relation.VecView). It
// hands emit, a batch at a time, the
// rows visible at this snapshot whose distance from q is at most *bound,
// with those distances; see VecView.walk for the bound's protocol. The
// slices may be the view's own or scratch reused by the next batch, so
// emit neither keeps nor modifies them. The
// view is a superset of the snapshot, and reading it through the
// snapshot keeps the two paired: a view installed after the snapshot
// was taken may hold built rows born later, which the walk would not
// filter. Once ctx is done the walk stops before its next node and
// returns ctx's error with the work done so far.
func (s *Snapshot) VecWalk(ctx context.Context, m metric.Distance, q metric.Vector, bound *float64, emit func(rows []*Row, dists []float64)) (index.Stats, error) {
	m, gen := viewMetric(m)
	v := s.h.vvs[m.Name()]
	if v == nil || v.gen != gen {
		v = buildVecView(m, gen, s.h.rows)
	}
	return v.walk(ctx, s, q, bound, emit)
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
	var buf [256]byte
	b := buf[:0]
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
// blank lines are skipped. The lines are parsed in contiguous chunks,
// one per GOMAXPROCS worker, and inserted in file order in one commit,
// so the relation holds the rows a line-by-line insert would, under the
// same ids. A malformed file reports its first bad line.
func Load(name string, rd io.Reader) (*Relation, error) {
	var lines []string
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	workers := runtime.GOMAXPROCS(0)
	rows, errs := make([][]InsertRow, workers), make([]error, workers)
	inParallel(len(lines), workers, func(c, lo, hi int) {
		for i, text := range lines[lo:hi] {
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			in, err := parseLine(text)
			if err != nil {
				errs[c] = fmt.Errorf("relation %s: line %d: %v", name, lo+i+1, err)
				return
			}
			rows[c] = append(rows[c], in)
		}
	})
	// The chunks cover the file in order, so the first chunk with an
	// error holds the first bad line; a read error ends the file, after
	// every line read before it.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	r := New(name)
	r.InsertBatch(slices.Concat(rows...))
	return r, nil
}

// parseLine reads one line of the Store codec. The row's strings are
// copies, not substrings of text: a row must not keep its whole line
// alive, which for a vector row holds the literal's text, about twice
// the size of the parsed vector.
func parseLine(text string) (InsertRow, error) {
	seq, rest, more := strings.Cut(text, "\t")
	in := InsertRow{Seq: strings.Clone(seq)}
	for more {
		var p string
		p, rest, more = strings.Cut(rest, "\t")
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return InsertRow{}, fmt.Errorf("bad attribute %q", p)
		}
		if k == "vec" {
			vec, err := metric.Parse(v)
			if err != nil {
				return InsertRow{}, err
			}
			in.Vec = vec
			continue
		}
		if in.Attrs == nil {
			in.Attrs = make(map[string]string)
		}
		in.Attrs[strings.Clone(k)] = strings.Clone(v)
	}
	return in, nil
}

// inParallel splits [0, n) into min(workers, n) contiguous chunks, at
// least one, and runs f on every chunk c, [lo, hi), each on a goroutine
// of its own when there are several. The chunks depend only on n and
// workers.
func inParallel(n, workers int, f func(c, lo, hi int)) {
	chunks := max(1, min(workers, n))
	if chunks == 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := range chunks {
		go func() {
			defer wg.Done()
			f(c, n*c/chunks, n*(c+1)/chunks)
		}()
	}
	wg.Wait()
}

// ------------------------------------------------------------- catalog

// Catalog is a named set of relations — the database the query engine
// runs against.
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{rels: make(map[string]*Relation)} }

// Add registers a relation, replacing any previous one with the name.
func (c *Catalog) Add(r *Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rels[r.Name()] = r
}

// Lookup returns the named relation.
func (c *Catalog) Lookup(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[name]
	return r, ok
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
