package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/relation"
)

// stubSyncs replaces the fsync hooks with no-ops for the duration of a
// test: the crash-point harnesses reopen stores thousands of times and
// only exercise replay logic, not the disk. Restores on cleanup.
func stubSyncs(t *testing.T) {
	t.Helper()
	sf, sd := syncFile, syncDir
	syncFile = func(*os.File) error { return nil }
	syncDir = func(string) error { return nil }
	t.Cleanup(func() { syncFile, syncDir = sf, sd })
}

// captureWarns redirects the storage warning sink into a buffer.
func captureWarns(t *testing.T) *bytes.Buffer {
	t.Helper()
	var mu sync.Mutex
	buf := &bytes.Buffer{}
	old := warnf
	warnf = func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(buf, format+"\n", args...)
		mu.Unlock()
	}
	t.Cleanup(func() { warnf = old })
	return buf
}

// catalogDump renders the whole catalog's visible state: relation name
// -> tuples in id order. Two catalogs with equal dumps are observably
// identical to every query.
func catalogDump(cat *relation.Catalog) map[string][]relation.Tuple {
	out := map[string][]relation.Tuple{}
	for _, name := range cat.Names() {
		tab, _ := cat.Lookup(name)
		out[name] = tab.Tuples()
	}
	return out
}

// writeFrame appends one CRC frame around payload.
func writeFrame(t *testing.T, w *os.File, payload []byte) {
	t.Helper()
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
}

// ------------------------------------------------------ binary codec

func TestBinaryRecordRoundTrip(t *testing.T) {
	recs := []walRecord{
		{LSN: 1, Tx: 1, Kind: recInsert, Rel: "r", Seq: "hello"},
		{LSN: 2, Tx: 1, Kind: recInsert, Rel: "r", Seq: "x", Vec: "[1.5,-2.25]",
			Attrs: map[string]string{"lang": "en", "k": ""}},
		{LSN: 3, Tx: 1, Kind: recUpdate, Rel: "ø/δ", ID: 7, Seq: strings.Repeat("s", 300)},
		{LSN: 4, Tx: 1, Kind: recCommit, N: 3},
		{LSN: 1 << 60, Tx: 1 << 40, Kind: recDelete, Rel: "r", ID: 1 << 30},
	}
	for _, want := range recs {
		payload, err := encodeRecord(nil, &want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		var got walRecord
		if err := decodeRecord(payload, &got); err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		// Every truncated prefix must error, never mis-decode.
		for cut := 0; cut < len(payload); cut++ {
			var r walRecord
			if err := decodeRecord(payload[:cut], &r); err == nil {
				t.Fatalf("truncated payload (%d/%d bytes) decoded silently", cut, len(payload))
			}
		}
		// Trailing garbage must error too.
		var r walRecord
		if err := decodeRecord(append(append([]byte(nil), payload...), 0x00), &r); err == nil {
			t.Fatal("payload with trailing bytes decoded silently")
		}
	}
	if _, err := encodeRecord(nil, &walRecord{Kind: "nonsense"}); err == nil {
		t.Fatal("unknown kind encoded")
	}
	// The kind bytes of a sharded build's segmented store stay reserved:
	// they decode to errSegmentedRecord, never to another kind.
	payload, err := encodeRecord(nil, &walRecord{LSN: 1, Tx: 1, Kind: recInsert, Rel: "r", ID: 3, Seq: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []byte{3, 4, 6} {
		payload[1] = kind
		var r walRecord
		if err := decodeRecord(payload, &r); !errors.Is(err, errSegmentedRecord) {
			t.Fatalf("kind byte %d: decode = %+v, %v; want errSegmentedRecord", kind, r, err)
		}
	}
}

// TestJSONBinaryReplayIdentity writes the same records once as legacy
// JSON payloads and once through the binary codec and checks both logs
// replay to identical catalogs — then appends to the JSON log through a
// live store (which writes binary) and checks the mixed log replays
// whole. This is the format-migration contract: old logs keep working,
// and a log may switch encodings mid-file.
func TestJSONBinaryReplayIdentity(t *testing.T) {
	stubSyncs(t)
	recs := []walRecord{
		{LSN: 1, Tx: 1, Kind: recInsert, Rel: "w", Seq: "alpha", Attrs: map[string]string{"n": "0"}},
		{LSN: 2, Tx: 1, Kind: recInsert, Rel: "w", Seq: "beta", Vec: "[0.5,1.25]"},
		{LSN: 3, Tx: 1, Kind: recCommit, N: 2},
		{LSN: 4, Tx: 2, Kind: recDelete, Rel: "w", ID: 0},
		{LSN: 5, Tx: 2, Kind: recCommit, N: 1},
		{LSN: 6, Tx: 3, Kind: recUpdate, Rel: "w", ID: 1, Seq: "gamma"},
		{LSN: 7, Tx: 3, Kind: recCommit, N: 1},
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "json.log")
	binPath := filepath.Join(dir, "bin.log")
	jf, _ := os.Create(jsonPath)
	bf, _ := os.Create(binPath)
	for i := range recs {
		jp, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		writeFrame(t, jf, jp)
		bp, err := encodeRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		writeFrame(t, bf, bp)
	}
	jf.Close()
	bf.Close()

	jcat := relation.NewCatalog()
	jst, err := Open(jsonPath, jcat)
	if err != nil {
		t.Fatal(err)
	}
	jst.SetSync(false)
	bcat := relation.NewCatalog()
	bst, err := Open(binPath, bcat)
	if err != nil {
		t.Fatal(err)
	}
	bst.Close()
	if jst.Metrics().ReplayedTx != 3 {
		t.Fatalf("JSON log replayed %d tx, want 3", jst.Metrics().ReplayedTx)
	}
	jd, bd := catalogDump(jcat), catalogDump(bcat)
	if !reflect.DeepEqual(jd, bd) {
		t.Fatalf("JSON and binary replay diverged:\n%v\n%v", jd, bd)
	}

	// Continue the JSON log with a live (binary-writing) store.
	if _, err := jst.Insert("w", "delta", nil); err != nil {
		t.Fatal(err)
	}
	want := catalogDump(jcat)
	jst.Close()
	cat2 := relation.NewCatalog()
	st2, err := Open(jsonPath, cat2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := catalogDump(cat2); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed JSON+binary log replay diverged:\n%v\n%v", got, want)
	}
}

// ------------------------------------------------- satellite bugfixes

// TestTornTailTruncationIsDurable pins the torn-tail resurrection fix:
// recovering from a corrupt tail must fsync the truncated file (so a
// machine crash cannot bring the bytes back), and creating a log must
// fsync the parent directory (so the crash cannot lose the file name).
func TestTornTailTruncationIsDurable(t *testing.T) {
	warns := captureWarns(t)
	var fileSyncs, dirSyncs int
	sf, sd := syncFile, syncDir
	syncFile = func(f *os.File) error { fileSyncs++; return sf(f) }
	syncDir = func(dir string) error { dirSyncs++; return sd(dir) }
	t.Cleanup(func() { syncFile, syncDir = sf, sd })

	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	cat := relation.NewCatalog()
	st, err := Open(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	if dirSyncs == 0 {
		t.Error("creating the WAL did not fsync the parent directory")
	}
	st.SetSync(false)
	if _, err := st.Insert("r", "keep", nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Torn tail: half a frame of garbage past the good bytes.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{9, 0, 0, 0, 1, 2, 3})
	f.Close()

	before := mTruncatedFrames.Value()
	fileSyncs = 0
	st2, err := Open(path, relation.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if fileSyncs == 0 {
		t.Error("truncating the torn tail did not fsync the file — a machine crash could resurrect it")
	}
	if got := mTruncatedFrames.Value() - before; got != 1 {
		t.Errorf("simq_wal_truncated_frames advanced by %d, want 1", got)
	}
	if !strings.Contains(warns.String(), "truncated") {
		t.Errorf("no structured truncation warning logged; warnings: %q", warns.String())
	}
}

// TestCommitMismatchWarns pins the operator signal for the silent
// segment-ending commit-N mismatch: truncation semantics stay (every
// later transaction is discarded), but the counter moves and a warning
// names the reason.
func TestCommitMismatchWarns(t *testing.T) {
	stubSyncs(t)
	warns := captureWarns(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	f, _ := os.Create(path)
	frames := []walRecord{
		{LSN: 1, Tx: 1, Kind: recInsert, Rel: "r", Seq: "kept"},
		{LSN: 2, Tx: 1, Kind: recCommit, N: 1},
		{LSN: 3, Tx: 2, Kind: recCommit, N: 5}, // no ops pending: mismatch
		{LSN: 4, Tx: 3, Kind: recInsert, Rel: "r", Seq: "discarded"},
		{LSN: 5, Tx: 3, Kind: recCommit, N: 1},
	}
	for i := range frames {
		p, err := encodeRecord(nil, &frames[i])
		if err != nil {
			t.Fatal(err)
		}
		writeFrame(t, f, p)
	}
	f.Close()

	before := mTruncatedFrames.Value()
	cat := relation.NewCatalog()
	st, err := Open(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, _ := cat.Lookup("r")
	if got := r.Tuples(); len(got) != 1 || got[0].Seq != "kept" {
		t.Fatalf("replay past mismatched commit = %v, want only the first tx", got)
	}
	if got := mTruncatedFrames.Value() - before; got != 1 {
		t.Errorf("simq_wal_truncated_frames advanced by %d, want 1", got)
	}
	if w := warns.String(); !strings.Contains(w, "mismatch") {
		t.Errorf("warning does not name the mismatch: %q", w)
	}
}

// --------------------------------------------- crash-point harnesses

// TestCrashPointRecovery is the byte-granular fault-injection harness:
// a scripted series of commits runs against a live store while the
// harness records the WAL length and a full catalog dump after every
// commit (the committed-prefix oracle). Then, for EVERY byte offset of
// the finished log, the log is truncated to that prefix and reopened —
// the recovered catalog must equal the oracle state of the last commit
// whose bytes fit the prefix, at every single offset. The same sweep
// runs again on the post-checkpoint tail, where recovery is snapshot +
// tail prefix.
func TestCrashPointRecovery(t *testing.T) {
	stubSyncs(t)
	captureWarns(t) // silence expected torn-tail warnings
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	cat := relation.NewCatalog()
	st, err := Open(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	st.SetSync(false)

	type boundary struct {
		off   int64
		state map[string][]relation.Tuple
	}
	oracle := []boundary{{0, catalogDump(cat)}}
	script := func(st *Store, cat *relation.Catalog, oracle *[]boundary) {
		var ids []int
		commit := func(ops []Op) {
			res, err := st.Commit(ops)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, res.InsertedIDs...)
			*oracle = append(*oracle, boundary{st.Metrics().WALBytes, catalogDump(cat)})
		}
		for k := 0; k < 8; k++ {
			ops := []Op{{Kind: OpInsert, Rel: "w", Seq: fmt.Sprintf("row-%d-a", k), Attrs: map[string]string{"k": fmt.Sprint(k)}}}
			if k%2 == 0 {
				ops = append(ops, Op{Kind: OpInsert, Rel: "w", Seq: fmt.Sprintf("row-%d-b", k)})
			}
			commit(ops)
			if k%3 == 2 && len(ids) > 2 {
				commit([]Op{{Kind: OpDelete, Rel: "w", ID: ids[k]}})
				commit([]Op{{Kind: OpUpdate, Rel: "w", ID: ids[k-1], Seq: fmt.Sprintf("upd-%d", k)}})
			}
		}
	}
	script(st, cat, &oracle)
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.SetSync(false)
	st.Close()

	sweep := func(t *testing.T, log []byte, oracle []boundary, ckpt string) {
		scratch := t.TempDir()
		walPath := filepath.Join(scratch, "wal.log")
		for off := int64(0); off <= int64(len(log)); off++ {
			if err := os.WriteFile(walPath, log[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			if ckpt != "" {
				if err := copyFile(ckpt, walPath+".ckpt"); err != nil {
					t.Fatal(err)
				}
			}
			cat := relation.NewCatalog()
			st, err := Open(walPath, cat)
			if err != nil {
				t.Fatalf("offset %d: reopen: %v", off, err)
			}
			want := oracle[0].state
			for _, b := range oracle {
				if b.off <= off {
					want = b.state
				}
			}
			if got := catalogDump(cat); !reflect.DeepEqual(got, want) {
				st.Close()
				t.Fatalf("offset %d of %d: recovered state diverges from committed-prefix oracle\n got: %v\nwant: %v",
					off, len(log), got, want)
			}
			st.SetSync(false)
			st.Close()
		}
	}
	t.Run("NoCheckpoint", func(t *testing.T) { sweep(t, final, oracle, "") })

	// Phase 2: checkpoint mid-history, run more commits, sweep the tail.
	cat2 := relation.NewCatalog()
	st2, err := Open(path, cat2)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetSync(false)
	if _, err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oracle2 := []boundary{{0, catalogDump(cat2)}}
	script(st2, cat2, &oracle2)
	tail, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ckptCopy := filepath.Join(dir, "ckpt.saved")
	if err := copyFile(st2.CheckpointPath(), ckptCopy); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	t.Run("PostCheckpointTail", func(t *testing.T) { sweep(t, tail, oracle2, ckptCopy) })
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// TestCheckpointReopenTailOnly pins the tentpole reopen contract: after
// a checkpoint, reopen loads the snapshot and replays ONLY the WAL tail
// past its covering LSN, reaching a state identical to a store that
// replayed the full history — and the WAL actually shrank.
func TestCheckpointReopenTailOnly(t *testing.T) {
	stubSyncs(t)
	dir := t.TempDir()
	st, cat := openTemp(t, dir)
	var ids []int
	for i := 0; i < 20; i++ {
		id, err := st.Insert("w", fmt.Sprintf("pre-%d", i), map[string]string{"n": fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ok, err := st.Delete("w", ids[3]); err != nil || !ok {
		t.Fatal(err)
	}
	before := st.Metrics().WALBytes
	info, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 19 || info.Rels != 1 {
		t.Fatalf("checkpoint info = %+v, want 19 rows / 1 rel", info)
	}
	if after := st.Metrics().WALBytes; after != 0 || before == 0 {
		t.Fatalf("WAL bytes %d -> %d; checkpoint must truncate the log", before, after)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Insert("w", fmt.Sprintf("post-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	want := catalogDump(cat)
	st.Close()

	st2, cat2 := openTemp(t, dir)
	defer st2.Close()
	if got := st2.Metrics().ReplayedTx; got != 5 {
		t.Errorf("replayed %d tx after checkpoint, want only the 5-tx tail", got)
	}
	if got := catalogDump(cat2); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed reopen diverged:\n got %v\nwant %v", got, want)
	}
	// The id allocator must resume exactly where the full history left
	// it, or the next insert would collide with pre-checkpoint ids.
	id, err := st2.Insert("w", "next", nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 25 {
		t.Fatalf("post-reopen id = %d, want 25 (20 + 5 prior inserts; deletes burn no ids)", id)
	}
}

// TestCheckpointShardedRoundTrip loads a checkpoint in the form a
// sharded build wrote it — "max_gid" in the header, "sharded" and
// "shards" on the relation, rows grouped by shard rather than in id
// order — into one plain relation with identical tuples and next_id,
// then commits a tail on top and checks a reopen replays it.
func TestCheckpointShardedRoundTrip(t *testing.T) {
	stubSyncs(t)
	const shards, nextID = 4, 45
	var want []relation.Tuple
	for i := 0; i < 40; i++ {
		if i%5 == 3 {
			continue // deleted before the checkpoint: ids stay sparse
		}
		tu := relation.Tuple{ID: i, Seq: fmt.Sprintf("row-%02d", i), Attrs: map[string]string{"i": fmt.Sprint(i)}}
		if i%3 == 0 {
			tu.Vec = metric.Vector{float32(i), float32(i) * 0.5}
		}
		want = append(want, tu)
	}
	var ckpt bytes.Buffer
	enc := json.NewEncoder(&ckpt)
	lines := []any{
		map[string]any{"v": 1, "lsn": 90, "max_gid": 7, "rels": 1},
		map[string]any{"rel": "s", "sharded": true, "shards": shards, "rows": len(want), "next_id": nextID},
	}
	for shard := 0; shard < shards; shard++ {
		for _, tu := range want {
			if tu.ID%shards != shard {
				continue
			}
			row := map[string]any{"id": tu.ID, "seq": tu.Seq, "attrs": tu.Attrs}
			if tu.Vec != nil {
				row["vec"] = metric.Format(tu.Vec)
			}
			lines = append(lines, row)
		}
	}
	lines = append(lines, map[string]any{"footer": true, "rels": 1})
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	base := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(base+".ckpt", ckpt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(base, relation.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	st.SetSync(false)
	if got := catalogDump(st.Catalog())["s"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded checkpoint loaded as\n%v\nwant\n%v", got, want)
	}
	if id, err := st.Insert("s", "tail-row", nil); err != nil || id != nextID {
		t.Fatalf("first insert after load = %d, %v; want id %d (the checkpoint's next_id)", id, err, nextID)
	}
	if ok, err := st.Delete("s", 7); err != nil || !ok {
		t.Fatalf("tail delete = %v, %v", ok, err)
	}
	tail := catalogDump(st.Catalog())
	st.Close()

	st2, err := Open(base, relation.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := catalogDump(st2.Catalog()); !reflect.DeepEqual(got, tail) {
		t.Fatalf("reopen over the sharded checkpoint diverged:\n got %v\nwant %v", got, tail)
	}
}

// TestOpenRefusesSegmentedLog: a log a sharded build wrote as segments
// path.0, path.1, … makes Open fail, naming the files and the remedy,
// while path does not exist — rather than open an empty store and
// leave the segments' commits behind. Segments a checkpoint emptied do
// not block, and a record kind only the segmented store wrote stops
// replay with an error instead of truncating the log there.
func TestOpenRefusesSegmentedLog(t *testing.T) {
	stubSyncs(t)
	captureWarns(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "wal")
	for i, size := range []int{0, 0, 12} {
		if err := os.WriteFile(fmt.Sprintf("%s.%d", base, i), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(base, relation.NewCatalog())
	if err == nil {
		t.Fatal("Open started over a sharded build's non-empty WAL segment")
	}
	for _, frag := range []string{base, base + ".2", "checkpoint", base + ".ckpt"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("the refused Open created %s", base)
	}

	// Checkpointed by the build that wrote them, the segments are empty.
	if err := os.Truncate(base+".2", 0); err != nil {
		t.Fatal(err)
	}
	st, err := Open(base, relation.NewCatalog())
	if err != nil {
		t.Fatalf("Open over emptied segments: %v", err)
	}
	st.Close()

	// A segmented-store record inside the plain log fails the open and
	// leaves the log's bytes in place.
	plain := filepath.Join(dir, "plain")
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walRecord{
		{LSN: 1, Tx: 1, Kind: recInsert, Rel: "w", Seq: "kept"},
		{LSN: 2, Tx: 1, Kind: recCommit, N: 1},
		{LSN: 3, Tx: 2, Kind: recInsert, Rel: "w", ID: 9, Seq: "explicit id"},
	} {
		payload, err := encodeRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if rec.ID == 9 {
			payload[1] = 3 // the explicit-id insert of the segmented store
		}
		writeFrame(t, f, payload)
	}
	f.Close()
	before, _ := os.Stat(plain)
	if _, err := Open(plain, relation.NewCatalog()); !errors.Is(err, errSegmentedRecord) {
		t.Fatalf("Open over a segmented-store record = %v, want errSegmentedRecord", err)
	}
	if after, _ := os.Stat(plain); after.Size() != before.Size() {
		t.Fatalf("the refused Open truncated the log: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestCheckpointCrashWindows exercises the two crash windows of the
// checkpoint protocol: (1) a crash mid-write leaves only a temp file,
// which the next open discards; (2) a crash after the atomic rename but
// before the WAL truncation leaves the full log behind the new
// snapshot — replay must filter the covered prefix by LSN, not apply it
// twice.
func TestCheckpointCrashWindows(t *testing.T) {
	stubSyncs(t)
	dir := t.TempDir()
	st, cat := openTemp(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := st.Insert("w", fmt.Sprintf("r%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Window 1: orphaned temp file from a mid-write crash.
	tmp := st.CheckpointPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := catalogDump(cat)
	st.Close()
	st2, cat2 := openTemp(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("orphaned checkpoint temp file survived reopen")
	}
	if got := catalogDump(cat2); !reflect.DeepEqual(got, want) {
		t.Fatalf("temp orphan corrupted recovery:\n got %v\nwant %v", got, want)
	}

	// Window 2: snapshot renamed, WAL truncation "lost" (simulated by
	// restoring the pre-checkpoint log bytes afterwards).
	walPath := filepath.Join(dir, "wal.log")
	preWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if err := os.WriteFile(walPath, preWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, cat3 := openTemp(t, dir)
	if got := st3.Metrics().ReplayedTx; got != 0 {
		t.Errorf("replayed %d covered tx after un-truncated checkpoint, want 0 (LSN filter)", got)
	}
	if got := catalogDump(cat3); !reflect.DeepEqual(got, want) {
		t.Fatalf("covered-prefix replay diverged:\n got %v\nwant %v", got, want)
	}
	// And the store keeps working: the stale frames are gone after the
	// next open truncation-by-LSN, so new commits replay cleanly.
	if _, err := st3.Insert("w", "after-crash", nil); err != nil {
		t.Fatal(err)
	}
	want3 := catalogDump(cat3)
	st3.Close()
	st4, cat4 := openTemp(t, dir)
	defer st4.Close()
	if got := catalogDump(cat4); !reflect.DeepEqual(got, want3) {
		t.Fatalf("post-crash-window commits diverged:\n got %v\nwant %v", got, want3)
	}
	// A corrupted snapshot must fail the open loudly, never replay a
	// partial state silently.
	ck, err := os.ReadFile(st4.CheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st4.CheckpointPath(), ck[:len(ck)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(walPath, relation.NewCatalog()); err == nil {
		t.Fatal("truncated checkpoint snapshot opened without error")
	}
	// Restore so Cleanup's Close path has a consistent store.
	if err := os.WriteFile(st4.CheckpointPath(), ck, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ------------------------------------------------------ group commit

// TestGroupCommitConcurrentCheckpoint hammers a sync-on store with
// concurrent committers while checkpoints land mid-stream: every commit
// must be acknowledged exactly once (the truncation generation releases
// waiters whose bytes the snapshot covered), and a reopen must recover
// every acknowledged row. Runs under -race in CI (name matches the
// targeted regex).
func TestGroupCommitConcurrentCheckpoint(t *testing.T) {
	stubSyncs(t) // fsync correctness is pinned elsewhere; this is a scheduling test
	dir := t.TempDir()
	cat := relation.NewCatalog()
	st, err := Open(filepath.Join(dir, "wal.log"), cat)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := st.Insert("w", fmt.Sprintf("w%d-%d", w, i), nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
		case err := <-errs:
			t.Fatal(err)
		default:
			if _, err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		break
	}
	w, _ := cat.Lookup("w")
	if w.Len() != workers*perWorker {
		t.Fatalf("live rows = %d, want %d", w.Len(), workers*perWorker)
	}
	st.Close()

	cat2 := relation.NewCatalog()
	st2, err := Open(filepath.Join(dir, "wal.log"), cat2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	w2, _ := cat2.Lookup("w")
	if w2.Len() != workers*perWorker {
		t.Fatalf("recovered rows = %d, want %d", w2.Len(), workers*perWorker)
	}
}

// TestGroupCommitDurableAcknowledge pins the fsync contract of the
// group-commit path with a counting hook: with sync on, every commit's
// bytes must be covered by some fsync before Commit returns, but N
// concurrent commits need far fewer than N fsyncs.
func TestGroupCommitDurableAcknowledge(t *testing.T) {
	var mu sync.Mutex
	var fsyncs int
	sf := syncFile
	syncFile = func(f *os.File) error {
		mu.Lock()
		fsyncs++
		mu.Unlock()
		return sf(f)
	}
	t.Cleanup(func() { syncFile = sf })

	dir := t.TempDir()
	cat := relation.NewCatalog()
	st, err := Open(filepath.Join(dir, "wal.log"), cat)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const workers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if _, err := st.Insert("w", fmt.Sprintf("c%d", w), nil); err != nil {
				t.Error(err)
			}
		}(w)
	}
	mu.Lock()
	fsyncs = 0
	mu.Unlock()
	close(start)
	wg.Wait()
	mu.Lock()
	n := fsyncs
	mu.Unlock()
	if n == 0 {
		t.Fatal("sync-on commits acknowledged with no fsync at all")
	}
	if n >= workers {
		t.Errorf("%d fsyncs for %d concurrent commits — group commit did not batch", n, workers)
	}
}
