// Package storage is the mutation subsystem of the engine: a write-
// ahead log plus a Store that applies committed operations to the MVCC
// relations of a catalog, and a checkpoint tier that snapshots the
// catalog to disk so reopen replays only the WAL tail.
//
// WAL format (documented in DESIGN.md): the log is a sequence of
// frames, each
//
//	uint32 payload length (little-endian)
//	uint32 CRC32-IEEE of the payload
//	payload bytes
//
// where the payload is one record in the binary encoding of record.go
// (legacy logs carry JSON payloads; replay accepts both per record).
// Records carry a monotonically increasing LSN and a transaction id; a
// transaction is a run of operation records closed by a commit record.
// Recovery reads frames until the first torn or corrupt one, truncates
// the file there — durably: the truncation is fsynced so a later
// machine crash cannot resurrect the discarded bytes — and applies
// only transactions whose commit record survived, so an interrupted
// append can never surface a half-applied batch.
package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Record kinds. Operation records precede their transaction's commit.
const (
	recInsert = "insert"
	recDelete = "delete"
	recUpdate = "update"
	recCommit = "commit"
)

// errSegmentedRecord rejects a record only the segmented store of
// sharded builds wrote (an explicit-id insert or update, or a global
// commit). This build cannot replay it, and truncating the log there
// would silently drop it and everything after it.
var errSegmentedRecord = errors.New("record written by a sharded build's segmented store; checkpoint the log with that build first")

// walRecord is one WAL entry. Insert records intentionally carry no
// tuple id: ids are assigned deterministically by replay order, which
// keeps the log identical across the original run and every recovery.
//
// Vec carries the row's embedding in the canonical vector-literal
// syntax (metric.Format). The text form is bit-exact for float32, so a
// replayed row measures identically to the original.
//
// The JSON tags are the legacy on-disk encoding — still read
// transparently, no longer written.
type walRecord struct {
	LSN   uint64            `json:"lsn"`
	Tx    uint64            `json:"tx"`
	Kind  string            `json:"op"`
	Rel   string            `json:"rel,omitempty"`
	ID    int               `json:"id,omitempty"`
	Seq   string            `json:"seq,omitempty"`
	Vec   string            `json:"vec,omitempty"` // canonical vector literal, "" = none
	Attrs map[string]string `json:"attrs,omitempty"`
	N     int               `json:"n,omitempty"` // commit: operation count of the tx
}

// decodeJSONRecord parses a legacy JSON payload (first byte '{').
func decodeJSONRecord(payload []byte, rec *walRecord) error {
	return json.Unmarshal(payload, rec)
}

// syncFile and syncDir are the fsync primitives, as hooks so the
// crash-injection tests can observe and fail them. syncDir makes a
// directory entry (a freshly created or renamed file) durable — on
// POSIX systems fsyncing the file alone does not persist its name.
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
)

// warnf is the structured-warning sink (stderr by default; tests
// capture it). Storage warnings are operator-visible conditions that
// are handled — e.g. a truncated WAL tail — not errors.
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// walTx is one committed transaction recovered from the log.
type walTx struct {
	ops       []walRecord
	commitLSN uint64
}

// wal is the append side of the log. Writers are serialized by the
// owning Store; fsync is delegated to the embedded syncer so
// concurrent commits can share one fsync (group commit).
type wal struct {
	f      *os.File
	w      *bufio.Writer
	path   string
	lsn    uint64 // last LSN written (or recovered)
	nextTx uint64
	bytes  int64
	sync   bool   // fsync commits (via the syncer)
	broken bool   // a failed append could not be rolled back; fail-stop
	enc    []byte // scratch buffer for binary record encoding

	syn walSyncer
}

// frame overhead per record: length + crc.
const frameHeader = 8

// maxRecordLen bounds one record's payload. Recovery treats any longer
// frame as a corrupt tail, so the append side must reject it up front —
// otherwise an acknowledged oversized commit would poison the log and
// truncate away every transaction after it at the next open.
const maxRecordLen = 1 << 24

// openWAL opens (creating if needed) the log at path, replays every
// complete frame and returns the committed transactions in order. A
// torn or corrupt tail is truncated away and the truncation fsynced; a
// record of a kind only the segmented store wrote fails the open
// instead. Creating the file fsyncs the parent directory so the log
// survives a machine crash right after first open.
func openWAL(path string) (*wal, []walTx, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &wal{f: f, path: path, sync: true}
	w.syn.cond = sync.NewCond(&w.syn.mu)

	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		// Freshly created (or still-empty) log: persist the directory
		// entry now, before any commit is acknowledged against it.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: fsync WAL directory: %w", err)
		}
	}

	var (
		txs       []walTx
		pending   = map[uint64][]walRecord{}
		good      int64
		rd        = bufio.NewReader(f)
		hdr       [frameHeader]byte
		truncated string // reason the scan stopped short of EOF ("" = clean)
	)
scan:
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			if err != io.EOF {
				truncated = "torn frame header"
			}
			break // clean EOF or torn header — stop either way
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordLen {
			truncated = "absurd frame length"
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(rd, payload); err != nil {
			truncated = "torn payload"
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			truncated = "CRC mismatch"
			break
		}
		var r walRecord
		if err := decodeRecord(payload, &r); err != nil {
			if errors.Is(err, errSegmentedRecord) {
				f.Close()
				return nil, nil, fmt.Errorf("storage: WAL %s: %w", path, err)
			}
			truncated = "undecodable record"
			break
		}
		switch r.Kind {
		case recCommit:
			ops := pending[r.Tx]
			delete(pending, r.Tx)
			if len(ops) != r.N {
				// A commit that doesn't match its operations cannot happen
				// with sequential appends; treat the log as ending before
				// it (the frame is truncated away, not preserved).
				truncated = fmt.Sprintf("commit frame op-count mismatch (tx=%d logged n=%d, found %d ops)", r.Tx, r.N, len(ops))
				break scan
			}
			txs = append(txs, walTx{ops: ops, commitLSN: r.LSN})
		default:
			pending[r.Tx] = append(pending[r.Tx], r)
		}
		good += frameHeader + int64(n)
		if r.LSN > w.lsn {
			w.lsn = r.LSN
		}
		if r.Tx > w.nextTx {
			w.nextTx = r.Tx
		}
	}
	// Truncate anything past the last fully-readable frame (drops torn
	// tails; uncommitted pending records stay in the file but are dead —
	// replay ignores them, and new appends go after them). The truncation
	// must itself be made durable: without the fsync a machine crash
	// after recovery could resurrect the discarded bytes, and the next
	// replay would read a tail this process already decided was corrupt.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: truncate torn WAL tail: %w", err)
	}
	if truncated != "" {
		mTruncatedFrames.Inc()
		warnf("storage: WAL truncated wal=%s reason=%q dropped_bytes=%d kept_bytes=%d",
			path, truncated, size-good, good)
		if err := syncFile(f); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: fsync truncated WAL: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.bytes = good
	w.syn.flushed.Store(good)
	w.syn.synced = good
	w.w = bufio.NewWriter(f)
	return w, txs, nil
}

// appendTx frames and writes one transaction: the operation records
// followed by a commit record. The buffer is always flushed to the OS
// (crash-of-process safe); fsync (crash-of-machine safe) is the
// caller's job via syncTo, outside the store mutex, so concurrent
// commits batch into one fsync. On any error the log rolls back to the
// pre-call state: the buffer is reset AND the file is truncated to its
// previous size — frames larger than the bufio buffer flush implicitly
// mid-write, so discarding the buffer alone could leave orphaned
// frames in the file whose tx id, once reused, would corrupt recovery.
// If even the truncate fails the wal turns fail-stop (broken): every
// later append errors rather than risk acknowledging writes a recovery
// could drop.
func (w *wal) appendTx(ops []walRecord) (tx uint64, err error) {
	if w.broken {
		return 0, fmt.Errorf("storage: WAL is fail-stopped after an unrecoverable append error")
	}
	lsn0, tx0, bytes0 := w.lsn, w.nextTx, w.bytes
	defer func() {
		if err != nil {
			w.w.Reset(w.f)
			w.lsn, w.nextTx, w.bytes = lsn0, tx0, bytes0
			if terr := w.f.Truncate(bytes0); terr != nil {
				w.broken = true
				return
			}
			if _, serr := w.f.Seek(bytes0, io.SeekStart); serr != nil {
				w.broken = true
			}
		}
	}()
	w.nextTx++
	tx = w.nextTx
	for i := range ops {
		w.lsn++
		ops[i].LSN = w.lsn
		ops[i].Tx = tx
		if err := w.writeRecord(&ops[i]); err != nil {
			return 0, err
		}
	}
	w.lsn++
	commit := walRecord{LSN: w.lsn, Tx: tx, Kind: recCommit, N: len(ops)}
	if err := w.writeRecord(&commit); err != nil {
		return 0, err
	}
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	w.syn.flushed.Store(w.bytes)
	mWALAppends.Inc()
	mWALBytes.Add(w.bytes - bytes0)
	return tx, nil
}

func (w *wal) writeRecord(rec *walRecord) error {
	payload, err := encodeRecord(w.enc[:0], rec)
	if err != nil {
		return err
	}
	w.enc = payload // keep the grown scratch buffer
	if len(payload) > maxRecordLen {
		return fmt.Errorf("storage: record of %d bytes exceeds the WAL frame limit (%d)", len(payload), maxRecordLen)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.bytes += frameHeader + int64(len(payload))
	return nil
}

// truncateAll discards the whole log — called by Checkpoint (under the
// store mutex, with the covering snapshot already durable) so replay
// starts from the snapshot instead. Bumping the generation releases
// any commit still waiting in syncTo: its bytes are covered by the
// snapshot, which is a durability guarantee at least as strong as the
// fsync it was waiting for. The truncation itself is fsynced so a
// machine crash cannot resurrect pre-checkpoint frames that a later
// reopen (which replays the tail against the snapshot) must not see
// twice — LSN filtering makes replay of such frames harmless, but the
// durable truncate keeps the log's byte length the source of truth.
func (w *wal) truncateAll() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.bytes = 0
	w.w.Reset(w.f)
	w.syn.mu.Lock()
	w.syn.gen++
	w.syn.flushed.Store(0)
	w.syn.synced = 0
	w.syn.cond.Broadcast()
	w.syn.mu.Unlock()
	return syncFile(w.f)
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// ----------------------------------------------------------- group commit

// walSyncer batches the fsyncs of concurrent commits. A commit appends
// and flushes under the store mutex, records its target offset, then
// calls syncTo outside the mutex: the first waiter becomes the leader
// and issues one fsync covering every byte flushed so far; commits that
// arrive while it runs wait and are usually covered by the NEXT single
// fsync — N concurrent committers pay ~2 fsyncs instead of N. The
// generation counter ties waiters to the file contents they wrote:
// a checkpoint truncation bumps it, releasing waiters (their bytes are
// durable in the snapshot) and telling an in-flight leader to discard
// its covered-offset result.
type walSyncer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	flushed atomic.Int64 // bytes flushed to the OS (written under the store mutex)
	synced  int64        // bytes durably fsynced (guarded by mu)
	syncing bool         // a leader fsync is in flight
	joined  int          // waiters since the last completed fsync (batch-size metric)
	gen     uint64       // truncation generation (guarded by mu)
	err     error        // sticky: after a failed fsync the wal is not trustworthy
}

// generation returns the current truncation generation. Commits capture
// it under the store mutex together with their target offset.
func (w *wal) generation() uint64 {
	w.syn.mu.Lock()
	defer w.syn.mu.Unlock()
	return w.syn.gen
}

// syncTo blocks until target bytes of generation gen are durable —
// by this call's own fsync (leader), somebody else's (follower), or a
// checkpoint having superseded the generation entirely.
func (w *wal) syncTo(target int64, gen uint64) error {
	s := &w.syn
	s.mu.Lock()
	s.joined++
	for {
		if s.err != nil {
			s.mu.Unlock()
			return s.err
		}
		if s.gen != gen {
			// Truncated by a checkpoint: the bytes this commit wrote are
			// durable in the snapshot that covered them.
			s.mu.Unlock()
			return nil
		}
		if s.synced >= target {
			s.mu.Unlock()
			return nil
		}
		if !s.syncing {
			break // become the leader
		}
		s.cond.Wait()
	}
	s.syncing = true
	// Everything flushed before the fsync starts is covered by it; read
	// the watermark first so late flushes are not falsely credited.
	covered := s.flushed.Load()
	batch := s.joined
	s.joined = 0
	s.mu.Unlock()

	start := time.Now()
	err := syncFile(w.f)
	mWALFsync.Observe(time.Since(start).Seconds())
	mGroupCommitBatch.Observe(float64(batch))

	s.mu.Lock()
	s.syncing = false
	switch {
	case err != nil:
		s.err = err
	case s.gen == gen && covered > s.synced:
		s.synced = covered
	}
	s.cond.Broadcast()
	done := s.err == nil && (s.gen != gen || s.synced >= target)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if done {
		return nil
	}
	// Rare: our own bytes were flushed after the covered watermark was
	// read (cannot happen for the leader's own commit, but keeps the
	// contract airtight under future callers) — wait for the next round.
	return w.syncTo(target, gen)
}
