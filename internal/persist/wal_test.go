package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func postRecord(seq uint64, id int64) Record {
	return Record{
		Seq:    seq,
		Bucket: int64(seq / 3),
		Kind:   KindPost,
		Post: PostRec{
			ID:   id,
			Time: 100 + id,
			Text: "späte Tore gewinnen das derby ⚽",
			Refs: []int64{id - 1, id - 2},
		},
	}
}

func openTestWAL(t *testing.T, path string, replay func(Record) error) *WAL {
	t.Helper()
	w, err := OpenWAL(path, SyncNever, 0, replay)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openTestWAL(t, path, nil)
	want := []Record{
		postRecord(1, 10),
		{Seq: 2, Bucket: 1, Kind: KindFlush, FlushNow: 900},
		{Seq: 3, Bucket: 1, Kind: KindPost, Post: PostRec{ID: 11, Time: 901, Text: ""}}, // no refs, empty text
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.LastSeq() != 3 {
		t.Errorf("LastSeq = %d", w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	w2 := openTestWAL(t, path, func(r Record) error {
		got = append(got, r)
		return nil
	})
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed records diverge:\n got %+v\nwant %+v", got, want)
	}
	if w2.LastSeq() != 3 {
		t.Errorf("reopened LastSeq = %d", w2.LastSeq())
	}
	// Appends continue after the replayed tail.
	if err := w2.Append(postRecord(4, 12)); err != nil {
		t.Fatal(err)
	}
}

func TestWALRejectsSequenceReuse(t *testing.T) {
	w := openTestWAL(t, filepath.Join(t.TempDir(), "wal"), nil)
	defer w.Close()
	if err := w.Append(postRecord(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(postRecord(5, 2)); err == nil {
		t.Error("duplicate sequence accepted")
	}
	if err := w.Append(postRecord(4, 2)); err == nil {
		t.Error("backwards sequence accepted")
	}
}

// A crash mid-append leaves a torn tail: every truncation point of the
// final record must recover exactly the preceding records, silently.
func TestWALTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	w := openTestWAL(t, path, nil)
	if err := w.Append(postRecord(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(postRecord(2, 11)); err != nil {
		t.Fatal(err)
	}
	prefix := w.Size()
	if err := w.Append(postRecord(3, 12)); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	for cut := prefix; cut < int64(len(full)); cut++ {
		torn := filepath.Join(dir, "torn")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		tw, err := OpenWAL(torn, SyncNever, 0, func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
			t.Fatalf("cut at %d: replayed %v, want [1 2]", cut, seqs)
		}
		if tw.Size() != prefix {
			t.Fatalf("cut at %d: size %d, want truncated to %d", cut, tw.Size(), prefix)
		}
		// The torn bytes are gone: a new append must land at the frame
		// boundary and survive a reopen.
		if err := tw.Append(postRecord(3, 99)); err != nil {
			t.Fatal(err)
		}
		tw.Close()
		seqs = nil
		tw2, err := OpenWAL(torn, SyncNever, 0, func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tw2.Close()
		if len(seqs) != 3 || seqs[2] != 3 {
			t.Fatalf("cut at %d: after re-append replayed %v", cut, seqs)
		}
	}
}

func TestWALAppendBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openTestWAL(t, path, nil)
	if err := w.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	want := []Record{
		postRecord(1, 10),
		{Seq: 2, Bucket: 1, Kind: KindFlush, FlushNow: 900},
		postRecord(3, 11),
	}
	if err := w.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if w.LastSeq() != 3 {
		t.Errorf("LastSeq = %d", w.LastSeq())
	}
	// Sequence discipline holds across the batch boundary, and within a
	// batch.
	if err := w.AppendBatch([]Record{postRecord(3, 12)}); err == nil {
		t.Error("batch reusing a sequence accepted")
	}
	if err := w.AppendBatch([]Record{postRecord(4, 12), postRecord(4, 13)}); err == nil {
		t.Error("batch with an internal duplicate sequence accepted")
	}
	w.Close()

	var got []Record
	w2 := openTestWAL(t, path, func(r Record) error {
		got = append(got, r)
		return nil
	})
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed records diverge:\n got %+v\nwant %+v", got, want)
	}
}

// Group commit's crash matrix: a batch of individually framed records cut
// at EVERY byte offset inside the batch's byte span must recover exactly
// the longest committed record prefix — never a partial record, never a
// record past the tear.
func TestWALAppendBatchTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	w := openTestWAL(t, path, nil)
	// One pre-batch record so the matrix also covers "whole batch lost".
	if err := w.Append(postRecord(1, 10)); err != nil {
		t.Fatal(err)
	}
	base := w.Size()
	batch := []Record{
		postRecord(2, 11),
		{Seq: 3, Bucket: 1, Kind: KindFlush, FlushNow: 500},
		postRecord(4, 12),
		postRecord(5, 13),
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Frame boundaries inside the batch span, derived from the frames
	// themselves (length prefix + payload).
	bounds := []int64{base}
	for off := base; off < int64(len(full)); {
		n := int64(binary.LittleEndian.Uint32(full[off:]))
		off += 8 + n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(batch)+1 || bounds[len(bounds)-1] != int64(len(full)) {
		t.Fatalf("frame walk found bounds %v over %d bytes", bounds, len(full))
	}

	for cut := base; cut <= int64(len(full)); cut++ {
		torn := filepath.Join(dir, "torn")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The longest committed prefix: every frame that ends at or
		// before the cut.
		committed := 0
		for bounds[committed+1] <= cut {
			committed++
			if committed+1 == len(bounds) {
				break
			}
		}
		var seqs []uint64
		tw, err := OpenWAL(torn, SyncNever, 0, func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := []uint64{1}
		for i := 0; i < committed; i++ {
			want = append(want, batch[i].Seq)
		}
		if !reflect.DeepEqual(seqs, want) {
			tw.Close()
			t.Fatalf("cut at %d: replayed %v, want %v", cut, seqs, want)
		}
		if tw.Size() != bounds[committed] {
			tw.Close()
			t.Fatalf("cut at %d: size %d, want truncated to %d", cut, tw.Size(), bounds[committed])
		}
		// Appends (batched, even) land cleanly after the truncation.
		if err := tw.AppendBatch([]Record{postRecord(6, 90), postRecord(7, 91)}); err != nil {
			t.Fatalf("cut at %d: re-append: %v", cut, err)
		}
		tw.Close()
	}
}

// A bit flip inside an earlier record stops replay at the last record
// before the flip — the valid prefix — rather than erroring or panicking.
func TestWALCorruptMiddleStopsAtPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	w := openTestWAL(t, path, nil)
	var bound int64
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.Append(postRecord(seq, int64(10+seq))); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			bound = w.Size()
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[bound+20] ^= 0xff // inside record 2's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	w2, err := OpenWAL(path, SyncNever, 0, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Errorf("replayed %v, want just the valid prefix [1]", seqs)
	}
}

func TestWALUnknownKindIsVersionError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	r := Record{Seq: 1, Kind: KindFlush, FlushNow: 7}
	buf, err := r.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Record{Seq: 1, Kind: Kind(0x7f)}).encode(nil); err == nil {
		t.Fatal("encode accepted an unknown kind")
	}
	// Rewrite the kind byte to an unknown value and fix up the CRC so the
	// frame is valid — a record from a future format, not a torn one.
	buf[8+16] = 0x7f
	fixCRC(buf)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(path, SyncNever, 0, nil)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("unknown kind error = %v, want ErrVersion", err)
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openTestWAL(t, path, nil)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.Append(postRecord(seq, int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Errorf("size after reset = %d", w.Size())
	}
	// Sequences keep counting up across the reset.
	if err := w.Append(postRecord(3, 3)); err == nil {
		t.Error("pre-reset sequence accepted after reset")
	}
	if err := w.Append(postRecord(6, 6)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var seqs []uint64
	w2 := openTestWAL(t, path, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	defer w2.Close()
	if len(seqs) != 1 || seqs[0] != 6 {
		t.Errorf("post-reset replay = %v, want [6]", seqs)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			before := runtime.NumGoroutine()
			w, err := OpenWAL(path, policy, 10*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The WAL is its owner's: it starts no goroutine of its own
			// (polled, as an unrelated one may be exiting).
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("OpenWAL left %d goroutines running, %d before", runtime.NumGoroutine(), before)
				}
			}
			for seq := uint64(1); seq <= 20; seq++ {
				if err := w.Append(postRecord(seq, int64(seq))); err != nil {
					t.Fatal(err)
				}
				if policy == SyncInterval && seq == 10 {
					time.Sleep(15 * time.Millisecond) // cross the sync deadline
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			n := 0
			w2, err := OpenWAL(path, policy, 0, func(Record) error { n++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			w2.Close()
			if n != 20 {
				t.Errorf("replayed %d records, want 20", n)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "never": SyncNever, "": SyncInterval,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

// fixCRC recomputes the CRC of the first frame in buf in place.
func fixCRC(buf []byte) {
	n := binary.LittleEndian.Uint32(buf)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:8+n], crcTable))
}

// faultyFile passes through to a WAL's file except for the faults armed
// on it: the next write stores only half its bytes and reports no error
// (a short write, as on a full disk), the next fsync fails.
type faultyFile struct {
	walFile
	shortWrite, failSync bool
}

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.shortWrite {
		f.shortWrite = false
		return f.walFile.Write(b[:len(b)/2])
	}
	return f.walFile.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected fsync failure")
	}
	return f.walFile.Sync()
}

// replayIDs reopens the log at path and returns the post IDs it replays.
func replayIDs(t *testing.T, path string) []int64 {
	t.Helper()
	var ids []int64
	w := openTestWAL(t, path, func(r Record) error {
		ids = append(ids, r.Post.ID)
		return nil
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// A write or an fsync that fails fails the log: every later append is
// refused — after a short write it would land behind a partial frame and
// be cut away with it at the next open, after a failed fsync it would be
// acknowledged on a file that may have dropped earlier writes — until a
// Reset after a checkpoint starts the log over.
func TestWALFailureFailsLogUntilReset(t *testing.T) {
	for _, fault := range []string{"short write", "fsync"} {
		t.Run(fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			w, err := OpenWAL(path, SyncAlways, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append(postRecord(1, 1)); err != nil {
				t.Fatal(err)
			}
			op := map[string]string{"short write": "append", "fsync": "fsync"}[fault]
			failures := obsWALFailures.With(op).Value()
			ff := &faultyFile{shortWrite: fault == "short write", failSync: fault == "fsync"}
			ff.walFile = w.SwapFileForTest(ff)
			if err := w.Append(postRecord(2, 2)); err == nil {
				t.Fatal("the faulty append succeeded")
			}
			// The failure is counted once, where the log failed, not
			// again for each append it refuses after.
			defer func() {
				if n := obsWALFailures.With(op).Value() - failures; n != 1 {
					t.Errorf("ksir_wal_failures_total{op=%q} rose by %d, want 1", op, n)
				}
			}()
			// The file works again, but the log stays failed, and it is
			// not synced again: a sync now would not make the dropped
			// writes durable.
			for seq := uint64(3); seq < 5; seq++ {
				if err := w.Append(postRecord(seq, int64(seq))); err == nil {
					t.Fatalf("append %d after a failed %s succeeded", seq, fault)
				}
			}
			if syncs := w.Syncs(); w.Sync() != nil || w.Syncs() != syncs {
				t.Fatal("a failed log was synced again")
			}
			if got := replayIDs(t, path); len(got) == 0 || got[0] != 1 || len(got) > 2 {
				t.Fatalf("the failed log replays posts %v, want 1 and at most the faulty 2", got)
			}
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(postRecord(5, 5)); err != nil {
				t.Fatalf("append after Reset: %v", err)
			}
			if got := replayIDs(t, path); !reflect.DeepEqual(got, []int64{5}) {
				t.Fatalf("after Reset the log replays posts %v, want [5]", got)
			}
		})
	}
}
