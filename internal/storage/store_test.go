package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/relation"
)

func openTemp(t *testing.T, dir string) (*Store, *relation.Catalog) {
	t.Helper()
	cat := relation.NewCatalog()
	st, err := Open(filepath.Join(dir, "wal.log"), cat)
	if err != nil {
		t.Fatal(err)
	}
	st.SetSync(false) // tests exercise process-crash durability (flush), not fsync
	return st, cat
}

func TestCommitAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, cat := openTemp(t, dir)

	id, err := st.Insert("words", "hello", map[string]string{"lang": "en"})
	if err != nil || id != 0 {
		t.Fatalf("Insert = %d, %v", id, err)
	}
	if _, err := st.Insert("words", "world", nil); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete("words", 0); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	nid, ok, err := st.Update("words", 1, "mundo", map[string]string{"lang": "es"})
	if err != nil || !ok {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	words, _ := cat.Lookup("words")
	want := words.Tuples()
	if len(want) != 1 || want[0].ID != nid || want[0].Seq != "mundo" {
		t.Fatalf("state after ops = %v", want)
	}

	// Reopen without Close: simulates a killed process (appends are
	// flushed per commit).
	st2, cat2 := openTemp(t, dir)
	defer st2.Close()
	words2, ok2 := cat2.Lookup("words")
	if !ok2 {
		t.Fatal("replay did not create relation")
	}
	if got := words2.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state = %v, want %v", got, want)
	}
	m := st2.Metrics()
	if m.ReplayedTx != 4 || m.ReplayedOp != 4 {
		t.Errorf("replay metrics = %+v, want 4 tx / 4 ops", m)
	}
}

func TestNoOpMutationsAreNotLogged(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTemp(t, dir)
	if _, err := st.Insert("r", "a", nil); err != nil {
		t.Fatal(err)
	}
	before := st.Metrics().WALBytes
	if ok, err := st.Delete("r", 99); err != nil || ok {
		t.Fatalf("Delete(99) = %v, %v", ok, err)
	}
	res, err := st.Commit([]Op{{Kind: OpUpdate, Rel: "r", ID: 42, Seq: "x"}})
	if err != nil || res.Applied != 0 || res.Tx != 0 {
		t.Fatalf("no-op commit = %+v, %v", res, err)
	}
	if st.Metrics().WALBytes != before {
		t.Error("no-op mutations grew the WAL")
	}
}

func TestBatchCommitAtomicReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTemp(t, dir)
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Rel: "b", Seq: fmt.Sprintf("s%d", i)}
	}
	res, err := st.Commit(ops)
	if err != nil || res.Applied != 10 || len(res.InsertedIDs) != 10 {
		t.Fatalf("batch commit = %+v, %v", res, err)
	}

	// Corrupt the tail: chop into the last frame. The final transaction
	// loses its commit record, so replay must drop the whole batch.
	path := filepath.Join(dir, "wal.log")
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st2, cat2 := openTemp(t, dir)
	defer st2.Close()
	if b, ok := cat2.Lookup("b"); ok && b.Len() != 0 {
		t.Fatalf("torn batch partially replayed: %d rows", b.Len())
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTemp(t, dir)
	if _, err := st.Insert("r", "keep", nil); err != nil {
		t.Fatal(err)
	}
	goodSize := st.Metrics().WALBytes
	if _, err := st.Insert("r", "lost", nil); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second transaction: CRC mismatch.
	path := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(path)
	data[goodSize+frameHeader+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, cat2 := openTemp(t, dir)
	r, _ := cat2.Lookup("r")
	if r.Len() != 1 {
		t.Fatalf("replayed %d rows, want 1 (corrupt tx dropped)", r.Len())
	}
	// The torn tail must have been truncated so new appends are clean.
	if _, err := st2.Insert("r", "after", nil); err != nil {
		t.Fatal(err)
	}
	st3, cat3 := openTemp(t, dir)
	defer st3.Close()
	r3, _ := cat3.Lookup("r")
	if got := r3.Tuples(); len(got) != 2 || got[1].Seq != "after" {
		t.Fatalf("post-truncate append replayed as %v", got)
	}
}

func TestFrameHeaderSanity(t *testing.T) {
	// An absurd length field must stop replay, not allocate 4GB.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	if err := os.WriteFile(path, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	st, cat := openTemp(t, dir)
	defer st.Close()
	if len(cat.Names()) != 0 {
		t.Fatal("replayed relations from a corrupt header")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTemp(t, dir)
	big := make([]byte, maxRecordLen+1)
	for i := range big {
		big[i] = 'a'
	}
	if _, err := st.Insert("r", string(big), nil); err == nil {
		t.Fatal("oversized record accepted; replay would truncate it as a corrupt tail")
	}
	// The failed append must leave the log clean for later commits.
	if _, err := st.Insert("r", "small", nil); err != nil {
		t.Fatal(err)
	}
	st2, cat2 := openTemp(t, dir)
	defer st2.Close()
	r, _ := cat2.Lookup("r")
	if got := r.Tuples(); len(got) != 1 || got[0].Seq != "small" {
		t.Fatalf("replay after rejected append = %v", got)
	}
}

func TestReplayDoesNotInflateLiveCounters(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTemp(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := st.Insert("r", fmt.Sprintf("s%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	st2, _ := openTemp(t, dir)
	defer st2.Close()
	m := st2.Metrics()
	if m.Inserts != 0 || m.Commits != 0 {
		t.Fatalf("live counters after replay = %+v, want zeros", m)
	}
	if m.ReplayedTx != 5 || m.ReplayedOp != 5 {
		t.Fatalf("replay counters = %+v", m)
	}
}

// TestReplayDeterminism10k drives 10k random interleaved ops and checks
// that a reopened store replays to the byte-identical committed state.
func TestReplayDeterminism10k(t *testing.T) {
	dir := t.TempDir()
	st, cat := openTemp(t, dir)
	rng := rand.New(rand.NewSource(42))
	var ids []int
	for op := 0; op < 10000; op++ {
		switch {
		case len(ids) == 0 || rng.Intn(10) < 5:
			b := make([]byte, 2+rng.Intn(10))
			for j := range b {
				b[j] = byte('a' + rng.Intn(10))
			}
			id, err := st.Insert("w", string(b), map[string]string{"n": fmt.Sprint(op)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		case rng.Intn(2) == 0:
			i := rng.Intn(len(ids))
			if ok, err := st.Delete("w", ids[i]); err != nil {
				t.Fatal(err)
			} else if ok {
				ids = append(ids[:i], ids[i+1:]...)
			}
		default:
			i := rng.Intn(len(ids))
			nid, ok, err := st.Update("w", ids[i], "u", nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				ids[i] = nid
			}
		}
	}
	w, _ := cat.Lookup("w")
	want := w.Tuples()

	st2, cat2 := openTemp(t, dir)
	defer st2.Close()
	w2, _ := cat2.Lookup("w")
	if got := w2.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay diverged: %d vs %d rows", len(got), len(want))
	}
}
