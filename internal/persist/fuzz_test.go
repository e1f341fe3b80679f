package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
)

// The decoders of checkpoint format v2 read bytes a crash, a bad disk or a
// stranger may have written. Whatever they are given they must return —
// never panic, never size an allocation from a count the remaining bytes
// cannot back — and say ErrCorrupt or ErrVersion; what they accept they
// must re-encode to the very bytes they read, so no two files mean the
// same checkpoint.
//
// Mutated bytes almost never carry a matching CRC, so each target can also
// wrap its input in a valid envelope or frame first, which puts the
// mutations in front of the field decoders instead of the checksum.

func FuzzCheckpointHead(f *testing.F) {
	ck := grown(3)
	payload := appendHead(nil, ck, logPrefix{count: logLen(&ck.Core.Window), bytes: 4096}, 2)
	f.Add(payload, true)
	f.Add(sealFile(ckptMagic, checkpointVersion, payload), false)
	f.Add(sealFile(ckptMagic, checkpointVersion+1, payload), false)
	f.Add(sealFile(ckptMagic, 1, payload), false) // the retired gob format's version
	f.Add(payload[:len(payload)/2], true)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = sealFile(ckptMagic, checkpointVersion, data)
		}
		payload, err := openHead(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("envelope error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		ck, lp, inWindow, err := decodeHead(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("head error %v is not ErrCorrupt", err)
			}
			return
		}
		if again := appendHead(nil, ck, lp, inWindow); !bytes.Equal(again, payload) {
			t.Fatalf("accepted head re-encodes to %d bytes that differ from the %d read", len(again), len(payload))
		}
	})
}

// FuzzElementLog scans count frames, the first half of them (rounded down)
// as the archive — kept as where their frames end and their IDs — and the
// rest as the window queue, decoded; it then re-encodes the log, reading
// the archived frames back through an ElementLog and encoding the window
// elements with their own encoder.
func FuzzElementLog(f *testing.F) {
	ck := grown(3)
	win := &ck.Core.Window
	log, _, _ := encodeFrames(win, 0)
	n := logLen(win)
	first := int(binary.LittleEndian.Uint32(log)) + 8
	f.Add(log, n, false)
	f.Add(log[:len(log)-3], n, false)    // torn inside the last frame
	f.Add(log, uint64(2), false)         // stray frames after the count
	f.Add(log[8:first], uint64(1), true) // one payload, framed by the target
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint64(1<<40), false)
	f.Add([]byte{}, uint64(0), false)
	f.Fuzz(func(t *testing.T, data []byte, count uint64, frame bool) {
		if frame {
			framed := make([]byte, 8, 8+len(data))
			binary.LittleEndian.PutUint32(framed, uint32(len(data)))
			binary.LittleEndian.PutUint32(framed[4:], crc32.Checksum(data, crcTable))
			data, count = append(framed, data...), 1
		}
		s, err := scanElements(bytes.NewReader(data), logPrefix{count: count, bytes: int64(len(data))}, count-count/2)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("element log error %v is not ErrCorrupt", err)
			}
			return
		}
		if uint64(len(s.ids)) != count/2 || uint64(len(s.window)) != count-count/2 || uint64(len(s.ends)) != count {
			t.Fatalf("scanned %d archived IDs, %d window elements and %d frame ends of %d", len(s.ids), len(s.window), len(s.ends), count)
		}
		arch := stream.Archive{Count: int(count / 2), Log: &ElementLog{r: bytes.NewReader(data)}, Frames: s.ends}
		for i, id := range s.ids {
			rec, _, err := arch.Record(i)
			if err != nil || stream.ElemID(binary.LittleEndian.Uint64(rec)) != id {
				t.Fatalf("archived element %d reads back as %v, %v; scanned ID %d", i, rec, err, id)
			}
		}
		again, _, err := encodeFrames(&stream.WindowState{Archive: arch, Window: s.window}, 0)
		if err != nil {
			t.Fatalf("accepted log does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted log re-encodes to %d bytes that differ from the %d read", len(again), len(data))
		}
	})
}

// FuzzWALFrames feeds the WAL scanner raw bytes, or one payload wrapped in
// a valid length and CRC frame. Whatever it is given, the scan stops on a
// frame boundary within the data, fails with nothing but ErrVersion (a
// record kind from the future), and every record it accepts re-encodes to
// exactly the bytes it consumed. decodeFrom alone, on the same bytes, keeps
// the same promises for its one frame.
func FuzzWALFrames(f *testing.F) {
	var log []byte
	for _, r := range []Record{
		{Seq: 1, Kind: KindPost, Post: PostRec{ID: 1, Time: 60, Text: "late goal wins the derby"}},
		{Seq: 2, Bucket: 1, Kind: KindPost, Post: PostRec{ID: 2, Time: 61, Text: "dunk", Refs: []int64{1}}},
		{Seq: 3, Bucket: 1, Kind: KindFlush, FlushNow: 120},
	} {
		var err error
		if log, err = r.encode(log); err != nil {
			f.Fatal(err)
		}
	}
	first := int(binary.LittleEndian.Uint32(log)) + 8
	future := append([]byte(nil), log[8:first]...)
	future[16] = 9 // the kind byte
	f.Add(log, false)
	f.Add(log[:len(log)-3], false) // torn inside the last frame
	f.Add(log[8:first], true)      // one payload, framed by the target
	f.Add(future, true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame {
			framed := make([]byte, 8, 8+len(data))
			binary.LittleEndian.PutUint32(framed, uint32(len(data)))
			binary.LittleEndian.PutUint32(framed[4:], crc32.Checksum(data, crcTable))
			data = append(framed, data...)
		}
		// reencodes checks that r is the frame at data[at:] and returns its length.
		reencodes := func(r Record, at int) int {
			again, err := r.encode(nil)
			if err != nil {
				t.Fatalf("accepted record at %d does not re-encode: %v", at, err)
			}
			if !bytes.HasPrefix(data[at:], again) {
				t.Fatalf("accepted record at %d re-encodes to %d bytes that differ from the ones read", at, len(again))
			}
			return len(again)
		}

		r, n, err := decodeFrom(data)
		switch {
		case err == nil:
			if got := reencodes(r, 0); got != n {
				t.Fatalf("decodeFrom consumed %d bytes of a %d byte frame", n, got)
			}
		case err != errTorn && !errors.Is(err, ErrVersion):
			t.Fatalf("decodeFrom error %v is neither a torn frame nor ErrVersion", err)
		}

		var boundary int
		off, err := scan(data, func(r Record) error {
			boundary += reencodes(r, boundary)
			return nil
		})
		if err != nil && !errors.Is(err, ErrVersion) {
			t.Fatalf("scan error %v is not ErrVersion", err)
		}
		if off != int64(boundary) || off > int64(len(data)) {
			t.Fatalf("scan stopped at %d, want the frame boundary %d within %d bytes", off, boundary, len(data))
		}
	})
}
