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

// FuzzElementLog decodes the first half of count frames (rounded down) as
// archived records and the rest as the window queue, and re-encodes each
// part with its own encoder.
func FuzzElementLog(f *testing.F) {
	ck := grown(3)
	win := &ck.Core.Window
	log, _ := encodeFrames(win, 0)
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
		arch, elems, err := decodeElements(data, count, count-count/2)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("element log error %v is not ErrCorrupt", err)
			}
			return
		}
		if uint64(arch.Len()) != count/2 || uint64(len(elems)) != count-count/2 {
			t.Fatalf("decoded %d archived and %d window elements of %d", arch.Len(), len(elems), count)
		}
		again, err := encodeFrames(&stream.WindowState{Archive: arch, Window: elems}, 0)
		if err != nil {
			t.Fatalf("accepted log does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted log re-encodes to %d bytes that differ from the %d read", len(again), len(data))
		}
	})
}
