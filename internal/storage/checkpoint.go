package storage

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/metric"
	"repro/internal/relation"
)

// Checkpoint file format: JSON lines, one object per line.
//
//	header    {"v":1,"lsn":N,"rels":N}
//	per rel   {"rel":"name","rows":N,"next_id":N}
//	          followed by exactly `rows` row lines
//	row       {"id":N,"seq":"...","vec":"...","attrs":{...}}
//	footer    {"footer":true,"rels":N}
//
// The file is written to a temp name, fsynced, atomically renamed over
// the previous checkpoint, and the directory fsynced — so the final
// name only ever holds a complete snapshot. The footer is a second
// line of defence: a loader refuses a file whose relation count does
// not match end to end (catches non-atomic filesystems and torn disk
// sectors that survived the rename protocol).
//
// The header's lsn is the covering LSN: every transaction with commit
// LSN <= lsn is folded into the snapshot, so reopen replays only WAL
// records past it.
//
// Sharded builds also wrote "max_gid" in the header and "sharded" and
// "shards" per relation. The loader ignores them: each row carries its
// id, so a sharded relation's rows load into one plain relation with
// the same tuples and next_id.

type ckptHeader struct {
	V    int    `json:"v"`
	LSN  uint64 `json:"lsn"`
	Rels int    `json:"rels"`
}

type ckptRel struct {
	Rel    string `json:"rel"`
	Rows   int    `json:"rows"`
	NextID int    `json:"next_id"`
}

type ckptRow struct {
	ID    int               `json:"id"`
	Seq   string            `json:"seq"`
	Vec   string            `json:"vec,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

type ckptFooter struct {
	Footer bool `json:"footer"`
	Rels   int  `json:"rels"`
}

// ckptVersion is the current checkpoint format version.
const ckptVersion = 1

// CheckpointInfo describes a completed checkpoint (and feeds /stats).
type CheckpointInfo struct {
	LSN      uint64        `json:"lsn"`
	Rels     int           `json:"relations"`
	Rows     int           `json:"rows"`
	Bytes    int64         `json:"bytes"`
	Duration time.Duration `json:"duration_ns"`
	At       time.Time     `json:"at"`
}

// writeCheckpoint serializes the catalog to path using the temp-file +
// fsync + atomic-rename + dir-fsync protocol. Caller holds the store
// mutex (the snapshot must be a commit boundary and lsn its cover).
func writeCheckpoint(path string, cat *relation.Catalog, lsn uint64) (rels, rows int, bytes int64, err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	names := cat.Names()
	sort.Strings(names)
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	if err = enc.Encode(ckptHeader{V: ckptVersion, LSN: lsn, Rels: len(names)}); err != nil {
		return 0, 0, 0, err
	}
	for _, name := range names {
		r, ok := cat.Lookup(name)
		if !ok {
			continue
		}
		tuples, nextID := r.DumpState()
		if err = enc.Encode(ckptRel{Rel: name, Rows: len(tuples), NextID: nextID}); err != nil {
			return 0, 0, 0, err
		}
		for _, tu := range tuples {
			row := ckptRow{ID: tu.ID, Seq: tu.Seq, Attrs: tu.Attrs}
			if tu.Vec != nil {
				row.Vec = metric.Format(tu.Vec)
			}
			if err = enc.Encode(row); err != nil {
				return 0, 0, 0, err
			}
		}
		rows += len(tuples)
	}
	if err = enc.Encode(ckptFooter{Footer: true, Rels: len(names)}); err != nil {
		return 0, 0, 0, err
	}
	if err = w.Flush(); err != nil {
		return 0, 0, 0, err
	}
	if err = syncFile(f); err != nil {
		return 0, 0, 0, err
	}
	fi, statErr := f.Stat()
	if statErr == nil {
		bytes = fi.Size()
	}
	if err = f.Close(); err != nil {
		return 0, 0, 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, 0, 0, err
	}
	if err = syncDir(filepath.Dir(path)); err != nil {
		return 0, 0, 0, err
	}
	return len(names), rows, bytes, nil
}

// loadCheckpoint reads the snapshot at path (if any) and rebuilds its
// relations into the catalog, replacing any same-named entries the
// caller pre-registered (the snapshot already contains their rows —
// it captured the whole catalog, -load files included). Returns the
// covering LSN; ok reports whether a snapshot was loaded.
// A malformed snapshot is an error, never silently skipped: the WAL
// alone would replay to a state missing everything the snapshot
// covered.
func loadCheckpoint(path string, cat *relation.Catalog) (lsn uint64, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()

	rd := bufio.NewReaderSize(f, 1<<20)
	dec := json.NewDecoder(rd)
	var hdr ckptHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, false, fmt.Errorf("storage: checkpoint %s: bad header: %w", path, err)
	}
	if hdr.V != ckptVersion {
		return 0, false, fmt.Errorf("storage: checkpoint %s: unsupported version %d", path, hdr.V)
	}
	for i := 0; i < hdr.Rels; i++ {
		var rh ckptRel
		if err := dec.Decode(&rh); err != nil {
			return 0, false, fmt.Errorf("storage: checkpoint %s: relation header %d: %w", path, i, err)
		}
		rows := make([]relation.Tuple, rh.Rows)
		for j := range rows {
			var cr ckptRow
			if err := dec.Decode(&cr); err != nil {
				return 0, false, fmt.Errorf("storage: checkpoint %s: relation %q row %d: %w", path, rh.Rel, j, err)
			}
			t := relation.Tuple{ID: cr.ID, Seq: cr.Seq, Attrs: cr.Attrs}
			if cr.Vec != "" {
				v, err := metric.Parse(cr.Vec)
				if err != nil {
					return 0, false, fmt.Errorf("storage: checkpoint %s: relation %q row %d: %v", path, rh.Rel, j, err)
				}
				t.Vec = v
			}
			rows[j] = t
		}
		cat.Add(relation.Rebuild(rh.Rel, rows, rh.NextID))
	}
	var ft ckptFooter
	if err := dec.Decode(&ft); err != nil || !ft.Footer || ft.Rels != hdr.Rels {
		return 0, false, fmt.Errorf("storage: checkpoint %s: missing or mismatched footer (%v)", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return 0, false, fmt.Errorf("storage: checkpoint %s: trailing data after footer", path)
	}
	return hdr.LSN, true, nil
}
