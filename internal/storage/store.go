package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/relation"
)

// OpKind enumerates the mutations a Store applies.
type OpKind int

// Mutation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpUpdate
)

// Op is one mutation against a named relation. Insert uses
// Seq/Vec/Attrs; Delete uses ID; Update uses ID plus the replacement
// Seq/Vec/Attrs. Vec is the optional embedding column (nil = none).
type Op struct {
	Kind  OpKind
	Rel   string
	ID    int
	Seq   string
	Vec   metric.Vector
	Attrs map[string]string
}

// encodeVec renders a vector for a WAL record ("" = none); decodeVec
// reverses it on replay. The canonical literal round-trips float32 bit
// for bit, so replayed rows measure identically.
func encodeVec(v metric.Vector) string {
	if v == nil {
		return ""
	}
	return metric.Format(v)
}

func decodeVec(s string) metric.Vector {
	if s == "" {
		return nil
	}
	v, err := metric.Parse(s)
	if err != nil {
		// A record that passed the CRC but carries an unreadable vector
		// can only come from hand-edited logs; drop the column rather
		// than the row.
		return nil
	}
	return v
}

// CommitResult reports what a committed transaction did.
type CommitResult struct {
	Tx          uint64 // WAL transaction id (0 when the commit was a no-op)
	Applied     int    // operations that took effect
	InsertedIDs []int  // ids assigned to inserts/updates, in op order
	Inserts     int    // applied ops by kind
	Deletes     int
	Updates     int
}

// applyBatch is the one implementation of "apply a batch of ops to
// relations", shared by the WAL-backed commit path and the storeless
// Apply fallback so the two can never drift. Runs of consecutive
// inserts into one relation apply as a single InsertBatch commit: one
// head copy and publish for the whole run, and the run becomes visible
// atomically (the common shapes — DML INSERT and /ingest — are exactly
// one such run).
func applyBatch(resolve func(string) (*relation.Relation, error), ops []Op) (CommitResult, error) {
	var res CommitResult
	for i := 0; i < len(ops); {
		op := ops[i]
		r, err := resolve(op.Rel)
		if err != nil {
			return res, err
		}
		if op.Kind == OpInsert {
			j := i
			for j < len(ops) && ops[j].Kind == OpInsert && ops[j].Rel == op.Rel {
				j++
			}
			rows := make([]relation.InsertRow, j-i)
			for k := i; k < j; k++ {
				rows[k-i] = relation.InsertRow{Seq: ops[k].Seq, Vec: ops[k].Vec, Attrs: ops[k].Attrs}
			}
			ids := r.InsertBatch(rows)
			res.InsertedIDs = append(res.InsertedIDs, ids...)
			res.Applied += len(ids)
			res.Inserts += len(ids)
			i = j
			continue
		}
		switch op.Kind {
		case OpDelete:
			if r.Delete(op.ID) {
				res.Applied++
				res.Deletes++
			}
		case OpUpdate:
			if id, ok := r.UpdateRow(op.ID, relation.InsertRow{Seq: op.Seq, Vec: op.Vec, Attrs: op.Attrs}); ok {
				res.InsertedIDs = append(res.InsertedIDs, id)
				res.Applied++
				res.Updates++
			}
		default:
			return res, fmt.Errorf("storage: unknown op kind %d", op.Kind)
		}
		i++
	}
	return res, nil
}

// Apply applies a batch directly to a catalog with no WAL — the
// storeless fallback used by the query engine and servers running
// without durability. Unknown relations error (nothing will replay to
// recreate them, so silent autocreation would hide typos).
func Apply(cat *relation.Catalog, ops []Op) (CommitResult, error) {
	return applyBatch(func(name string) (*relation.Relation, error) {
		r, ok := cat.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("storage: unknown relation %q", name)
		}
		return r, nil
	}, ops)
}

// Metrics is a snapshot of a store's write-side counters.
type Metrics struct {
	Commits    int64 `json:"commits"`
	Inserts    int64 `json:"inserts"`
	Deletes    int64 `json:"deletes"`
	Updates    int64 `json:"updates"`
	WALBytes   int64 `json:"wal_bytes"`
	ReplayedTx int   `json:"replayed_tx"`
	ReplayedOp int   `json:"replayed_ops"`
}

// Store gives a catalog of MVCC relations a durable write path: every
// commit is framed into the WAL (flushed, optionally fsynced) before
// its acknowledgement, and applied in memory under the store mutex, so
// reopening the store replays the log to the identical committed
// state. Writers serialize on the store's mutex for the append+apply
// critical section; the fsync happens OUTSIDE the mutex through the
// log's group-commit syncer, so concurrent committers share one
// fsync instead of queueing N of them. Acknowledgements retire in
// commit order (a dense sequence watermark), so a commit is never
// acknowledged while an earlier commit it may depend on is still
// waiting for the disk. Readers never touch the mutex — they read
// relation snapshots.
//
// Replay determinism: insert records carry no tuple id — ids are
// re-assigned by replay order — so the store must be opened over the
// same base catalog (e.g. the same -load files) every time, and once a
// store is attached all mutations must flow through it, never through
// direct relation calls.
//
// Checkpoint serializes the whole catalog to a snapshot file (temp
// file + fsync + atomic rename + dir fsync), truncates the WAL, and
// records the covering LSN: reopen loads the snapshot and
// replays only the WAL tail past it.
type Store struct {
	mu          sync.Mutex
	cat         *relation.Catalog
	wal         *wal
	seqNext     uint64 // dense commit sequence, assigned under mu
	ckptPath    string
	groupCommit bool
	stopped     bool // fail-stop: a post-apply durability error poisoned the store
	lastCkpt    CheckpointInfo

	ackMu   sync.Mutex
	ackCond *sync.Cond
	ackNext uint64 // next commit sequence allowed to acknowledge

	commits    atomic.Int64
	inserts    atomic.Int64
	deletes    atomic.Int64
	updates    atomic.Int64
	replayedTx int
	replayedOp int
}

// Open opens (creating if needed) the WAL at path and replays every
// committed transaction into the catalog — from the checkpoint snapshot
// at path+".ckpt" first, when one exists, then the WAL tail past its
// covering LSN. Relations named by the log that are missing from the
// catalog are created and registered.
//
// A sharded build logged to segments path.0, path.1, … instead. Open
// refuses to start over such a log when path itself does not exist, so
// its commits are never silently left behind; checkpointing with the
// build that wrote it folds them into path.ckpt and empties them.
func Open(path string, cat *relation.Catalog) (*Store, error) {
	if err := checkSegments(path); err != nil {
		return nil, err
	}
	ckptPath := path + ".ckpt"
	// A crash mid-checkpoint leaves a temp file; it was never renamed,
	// so it covers nothing and is safe to drop.
	os.Remove(ckptPath + ".tmp")

	ckptLSN, fromCkpt, err := loadCheckpoint(ckptPath, cat)
	if err != nil {
		return nil, err
	}
	w, txs, err := openWAL(path)
	if err != nil {
		return nil, err
	}
	if ckptLSN > w.lsn {
		w.lsn = ckptLSN
	}
	s := &Store{cat: cat, wal: w, ckptPath: ckptPath, groupCommit: true}
	s.ackCond = sync.NewCond(&s.ackMu)
	start := time.Now()
	for _, tx := range txs {
		if fromCkpt && tx.commitLSN <= ckptLSN {
			// Folded into the snapshot already (the checkpoint's covering
			// LSN was captured at a commit boundary; a crash between the
			// snapshot rename and the WAL truncation leaves these behind).
			continue
		}
		for i := range tx.ops {
			s.applyRecord(&tx.ops[i])
			s.replayedOp++
		}
		s.replayedTx++
	}
	mReplayMillis.Set(time.Since(start).Milliseconds())
	mReplayTx.Add(int64(s.replayedTx))
	mReplayOps.Add(int64(s.replayedOp))
	mReplayTailTx.Set(int64(s.replayedTx))
	return s, nil
}

// checkSegments fails when path does not exist but a non-empty segment
// path.N written by a sharded build does.
func checkSegments(path string) error {
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		return nil
	}
	for i := 0; ; i++ {
		seg := fmt.Sprintf("%s.%d", path, i)
		fi, err := os.Stat(seg)
		if err != nil {
			return nil
		}
		if fi.Size() > 0 {
			return fmt.Errorf("storage: %s does not exist but %s holds WAL records of a sharded build, "+
				"which this build cannot replay; checkpoint with the previous build (POST /v1/checkpoint), "+
				"which folds every segment into %s.ckpt, then restart", path, seg, path)
		}
	}
}

// SetSync toggles fsync-per-commit (default on). With it off a commit
// still survives process death — the buffer is flushed to the OS — but
// not machine death.
func (s *Store) SetSync(sync bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal.sync = sync
}

// SetGroupCommit toggles the group-commit fsync path (default on).
// With it off, a sync-enabled commit fsyncs the log inside the store
// mutex — one fsync per commit, fully serialized. Exists for the
// benchmark pair that gates the group-commit win; production callers
// have no reason to turn it off.
func (s *Store) SetGroupCommit(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groupCommit = on
}

// Catalog returns the catalog the store writes into.
func (s *Store) Catalog() *relation.Catalog { return s.cat }

// relFor returns the named relation, creating and registering it on
// first use (the WAL may define relations the base catalog does not).
func (s *Store) relFor(name string) *relation.Relation {
	if r, ok := s.cat.Lookup(name); ok {
		return r
	}
	r := relation.New(name)
	s.cat.Add(r)
	return r
}

// applyRecord applies one replayed WAL record to the catalog. Replay
// is tracked by ReplayedTx/ReplayedOp alone — the live write counters
// describe this process's traffic, not recovered history.
func (s *Store) applyRecord(rec *walRecord) {
	r := s.relFor(rec.Rel)
	row := relation.InsertRow{Seq: rec.Seq, Vec: decodeVec(rec.Vec), Attrs: rec.Attrs}
	switch rec.Kind {
	case recInsert:
		r.InsertBatch([]relation.InsertRow{row})
	case recDelete:
		r.Delete(rec.ID)
	case recUpdate:
		r.UpdateRow(rec.ID, row)
	}
}

// retire blocks until every earlier commit has acknowledged, then
// releases this one's slot. Commit sequences are dense and assigned
// under the store mutex, so the watermark advances exactly once per
// commit — error paths included, or the pipeline would stall forever.
func (s *Store) retire(seq uint64) {
	s.ackMu.Lock()
	for s.ackNext != seq {
		s.ackCond.Wait()
	}
	s.ackNext++
	s.ackCond.Broadcast()
	s.ackMu.Unlock()
}

// failStop poisons the store after a post-apply durability error:
// in-memory state is ahead of what the log can promise, so continuing
// to acknowledge commits would silently widen the divergence.
func (s *Store) failStop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Commit durably applies a batch of operations: the surviving ops are
// framed into the WAL as one transaction (log first), applied to the
// relations, and — when fsync is on — acknowledged only after the
// group-commit syncer reports the bytes durable. Deletes and updates
// whose target id is not currently visible are dropped before logging,
// so the log never carries no-ops and replay can apply every record
// blindly.
//
// Ops in one batch must reference pre-batch state: validation runs
// before any op applies, so a delete/update of a row inserted earlier
// in the same batch is dropped as a no-op (its id cannot be known when
// the batch is built anyway), and a delete/update naming a relation
// only created by an earlier insert in the batch errors. The query
// layer never produces such batches — each DML statement is single-
// kind — but direct Store users should commit dependent ops
// separately.
func (s *Store) Commit(ops []Op) (CommitResult, error) {
	s.mu.Lock()

	var res CommitResult
	if s.stopped {
		s.mu.Unlock()
		return res, fmt.Errorf("storage: store is fail-stopped after a durability error")
	}
	recs := make([]walRecord, 0, len(ops))
	kept := make([]Op, 0, len(ops))
	for _, op := range ops {
		var rec walRecord
		switch op.Kind {
		case OpInsert:
			rec = walRecord{Kind: recInsert, Rel: op.Rel, Seq: op.Seq, Vec: encodeVec(op.Vec), Attrs: op.Attrs}
		case OpDelete, OpUpdate:
			r, ok := s.cat.Lookup(op.Rel)
			if !ok {
				s.mu.Unlock()
				return res, fmt.Errorf("storage: unknown relation %q", op.Rel)
			}
			if _, visible := r.Tuple(op.ID); !visible {
				continue
			}
			kind := recDelete
			if op.Kind == OpUpdate {
				kind = recUpdate
			}
			rec = walRecord{Kind: kind, Rel: op.Rel, ID: op.ID, Seq: op.Seq, Vec: encodeVec(op.Vec), Attrs: op.Attrs}
		default:
			s.mu.Unlock()
			return res, fmt.Errorf("storage: unknown op kind %d", op.Kind)
		}
		recs = append(recs, rec)
		kept = append(kept, op)
	}
	if len(kept) == 0 {
		s.mu.Unlock()
		return res, nil
	}

	w := s.wal
	tx, err := w.appendTx(recs)
	if err != nil {
		s.mu.Unlock()
		return res, fmt.Errorf("storage: WAL append: %w", err)
	}

	res, err = applyBatch(func(name string) (*relation.Relation, error) {
		return s.relFor(name), nil
	}, kept)
	res.Tx = tx
	if err != nil {
		// Cannot happen with validated kept ops; surface it loudly if a
		// future op kind slips past validation after logging.
		s.stopped = true
		s.mu.Unlock()
		return res, fmt.Errorf("storage: apply after WAL commit: %w", err)
	}

	// Capture the fsync target under the mutex — the offset and
	// truncation generation must describe the bytes THIS commit wrote —
	// then sync outside it so concurrent commits share fsyncs (group
	// commit).
	var off int64
	var gen uint64
	groupSync := w.sync && s.groupCommit
	if groupSync {
		off, gen = w.bytes, w.generation()
	} else if w.sync {
		// Legacy path (bench baseline): one fsync per commit, serialized
		// under the store mutex exactly like the pre-group-commit store.
		start := time.Now()
		if err := syncFile(w.f); err != nil {
			s.stopped = true
			s.mu.Unlock()
			return res, fmt.Errorf("storage: WAL fsync: %w", err)
		}
		mWALFsync.Observe(time.Since(start).Seconds())
	}
	seq := s.seqNext
	s.seqNext++
	s.mu.Unlock()
	defer s.retire(seq)

	if groupSync {
		if err := w.syncTo(off, gen); err != nil {
			s.failStop()
			return res, fmt.Errorf("storage: WAL fsync: %w", err)
		}
	}

	s.inserts.Add(int64(res.Inserts))
	s.deletes.Add(int64(res.Deletes))
	s.updates.Add(int64(res.Updates))
	s.commits.Add(1)
	mCommits.Inc()
	return res, nil
}

// Checkpoint serializes the catalog to the store's snapshot file and
// truncates the WAL. Stop-the-world: the store mutex is held
// across the dump, so the snapshot is one commit boundary and its
// covering LSN is exact — writers queue for the duration (dump cost is
// one sequential pass over the visible rows; see EXPERIMENTS.md for
// measured times). Commits already waiting on a group fsync when the
// truncation lands are released: their bytes are durable in the
// snapshot, which is exactly the guarantee they were waiting for.
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return CheckpointInfo{}, fmt.Errorf("storage: store is fail-stopped after a durability error")
	}
	lsn := s.wal.lsn
	rels, rows, bytes, err := writeCheckpoint(s.ckptPath, s.cat, lsn)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := s.wal.truncateAll(); err != nil {
		// The snapshot is durable and covers every logged transaction;
		// a tail that would not truncate merely costs replay-and-filter
		// work at the next open. Warn, don't fail the checkpoint.
		warnf("storage: WAL truncate after checkpoint failed err=%q", err)
	}
	info := CheckpointInfo{
		LSN:      lsn,
		Rels:     rels,
		Rows:     rows,
		Bytes:    bytes,
		Duration: time.Since(start),
		At:       start,
	}
	s.lastCkpt = info
	mCheckpoints.Inc()
	mCheckpointSeconds.Observe(info.Duration.Seconds())
	mCheckpointBytes.Set(bytes)
	mCheckpointRows.Set(int64(rows))
	return info, nil
}

// LastCheckpoint reports the most recent checkpoint written by THIS
// process (zero value when none); feeds /stats.
func (s *Store) LastCheckpoint() CheckpointInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCkpt
}

// CheckpointPath returns the snapshot file path the store reads at
// open and Checkpoint writes.
func (s *Store) CheckpointPath() string { return s.ckptPath }

// Insert is a single-op Commit convenience; returns the assigned id.
func (s *Store) Insert(rel, seq string, attrs map[string]string) (int, error) {
	res, err := s.Commit([]Op{{Kind: OpInsert, Rel: rel, Seq: seq, Attrs: attrs}})
	if err != nil {
		return 0, err
	}
	return res.InsertedIDs[0], nil
}

// Delete is a single-op Commit convenience; false when id was not
// visible.
func (s *Store) Delete(rel string, id int) (bool, error) {
	res, err := s.Commit([]Op{{Kind: OpDelete, Rel: rel, ID: id}})
	if err != nil {
		return false, err
	}
	return res.Applied == 1, nil
}

// Update is a single-op Commit convenience; returns the replacement id.
func (s *Store) Update(rel string, id int, seq string, attrs map[string]string) (int, bool, error) {
	res, err := s.Commit([]Op{{Kind: OpUpdate, Rel: rel, ID: id, Seq: seq, Attrs: attrs}})
	if err != nil || res.Applied == 0 {
		return 0, false, err
	}
	return res.InsertedIDs[0], true, nil
}

// Metrics snapshots the write-side counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	bytes := s.wal.bytes
	s.mu.Unlock()
	return Metrics{
		Commits:    s.commits.Load(),
		Inserts:    s.inserts.Load(),
		Deletes:    s.deletes.Load(),
		Updates:    s.updates.Load(),
		WALBytes:   bytes,
		ReplayedTx: s.replayedTx,
		ReplayedOp: s.replayedOp,
	}
}

// Close flushes and closes the WAL. The store must not be used after
// (in-flight commits must have returned).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.close()
}
