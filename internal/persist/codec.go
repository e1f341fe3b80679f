package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/stream"
)

// Checkpoint format v2 (DESIGN.md §8) is two files of flat little-endian
// fields. Counts are u32 and every variable-length run is prefixed by its
// count; nothing is self-describing and nothing is reflected over, so the
// decoders below are the whole format.
//
// The element log is a sequence of frames, one per element, each written
// once in the element's life:
//
//	| payload len u32 | CRC32C(payload) u32 | payload |
//	payload = | record | text (the rest) |
//	record  = | id i64 | ts i64 | doc len u32
//	          | nterms u32 | (word u32, count u32)...
//	          | ntopics u32 | topic u32... | prob f64...
//	          | nrefs u32 | ref i64... |
//
// The record is internal/stream's archive record: an element that left
// the window before a checkpoint is archived in exactly the bytes its
// frame carries, so a checkpoint frames it without decoding it. Once
// framed, the archive keeps only where the frame ends and reads the
// element back through an ElementLog (elementlog.go) when a reference
// resurrects it; a load keeps just that end and the element's ID.
//
// The head is one enveloped payload (sealFile):
//
//	| model hash u64 | op seq u64 | last time i64 | log count u64 | log bytes u64
//	| name len u32 | name | now i64 | in-window u64
//	| nactive u32 | (id i64, last-ref i64)...
//	| nlists u32 | per list: ntuples u32 | (id i64, score f64, last-ref i64)...
//	| stats: elements, buckets, update ns, replay ns, upserts, deletes (i64 each)
//	| npending u32 | per post: id i64 | time i64 | nrefs u32 | ref i64... | text len u32 | text |

// elemFrameMin is the smallest possible element frame: the 8-byte frame
// header plus a record with every count zero and no text.
const elemFrameMin = 8 + stream.RecordMin

// appendArchivedFrame appends the frame of an element the archive holds
// in memory: its record as the archive holds it, then its text. Nothing is
// decoded.
func appendArchivedFrame(buf, rec []byte, text string) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	buf = append(buf, rec...)
	return sealFrame(append(buf, text...), start)
}

// appendElementFrame appends the frame of a window element, encoding its
// record with the archive's encoder.
func appendElementFrame(buf []byte, e *stream.Element) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	buf = stream.AppendRecord(buf, e)
	return sealFrame(append(buf, e.Text...), start)
}

// sealFrame fills in the header of the frame that starts at start and
// runs to the end of buf.
func sealFrame(buf []byte, start int) ([]byte, error) {
	payload := buf[start+8:]
	if len(payload) > maxRecordSize {
		id := int64(binary.LittleEndian.Uint64(payload))
		return nil, fmt.Errorf("persist: element %d of %d bytes exceeds the %d byte limit", id, len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// logPrefix names the durable part of an element log: the first count
// elements occupy exactly the first bytes bytes of the file.
type logPrefix struct {
	count uint64
	bytes int64
}

// appendHead appends the head payload of ck over the given log prefix, of
// which the last inWindow elements are the window queue.
func appendHead(buf []byte, ck *Checkpoint, lp logPrefix, inWindow uint64) []byte {
	size := 128 + len(ck.Name) + 16*len(ck.Core.Window.Active)
	for _, items := range ck.Core.Lists {
		size += 4 + 24*len(items)
	}
	for _, p := range ck.Pending {
		size += 24 + 8*len(p.Refs) + len(p.Text)
	}
	buf = slices.Grow(buf, size)
	buf = appendU64(buf, ck.ModelHash)
	buf = appendU64(buf, ck.OpSeq)
	buf = appendI64(buf, ck.LastTime)
	buf = appendU64(buf, lp.count)
	buf = appendI64(buf, lp.bytes)
	buf = appendU32(buf, uint32(len(ck.Name)))
	buf = append(buf, ck.Name...)
	win := &ck.Core.Window
	buf = appendI64(buf, int64(win.Now))
	buf = appendU64(buf, inWindow)
	buf = appendU32(buf, uint32(len(win.Active)))
	for _, a := range win.Active {
		buf = appendI64(buf, int64(a.ID))
		buf = appendI64(buf, int64(a.LastRef))
	}
	buf = appendU32(buf, uint32(len(ck.Core.Lists)))
	for _, items := range ck.Core.Lists {
		buf = appendU32(buf, uint32(len(items)))
		for _, it := range items {
			buf = appendI64(buf, int64(it.ID))
			buf = appendU64(buf, math.Float64bits(it.Score))
			buf = appendI64(buf, int64(it.LastRef))
		}
	}
	st := &ck.Core.Stats
	// The 0 fills the slot of a deleted counter (the delta-replay time), so
	// checkpoints of either layout read the same.
	for _, v := range [...]int64{st.ElementsIngested, st.Buckets, int64(st.UpdateTime), 0, st.ListUpserts, st.ListDeletes} {
		buf = appendI64(buf, v)
	}
	buf = appendU32(buf, uint32(len(ck.Pending)))
	for _, p := range ck.Pending {
		buf = appendI64(buf, p.ID)
		buf = appendI64(buf, p.Time)
		buf = appendU32(buf, uint32(len(p.Refs)))
		for _, ref := range p.Refs {
			buf = appendI64(buf, ref)
		}
		buf = appendU32(buf, uint32(len(p.Text)))
		buf = append(buf, p.Text...)
	}
	return buf
}

// decodeHeadPrefix reads the fixed leading fields of a head payload — all
// a writer needs to find the durable log prefix — and returns the rest.
func decodeHeadPrefix(payload []byte) (*Checkpoint, logPrefix, reader, error) {
	r := reader{b: payload}
	ck := &Checkpoint{ModelHash: r.u64(), OpSeq: r.u64(), LastTime: r.i64()}
	lp := logPrefix{count: r.u64(), bytes: r.i64()}
	ck.Name = string(r.bytes(r.count(1)))
	if r.short || lp.bytes < 0 || lp.count > uint64(lp.bytes/elemFrameMin) {
		return nil, logPrefix{}, r, fmt.Errorf("%w: checkpoint head names an impossible log prefix", ErrCorrupt)
	}
	return ck, lp, r, nil
}

// decodeHead decodes a whole head payload and returns how many of the
// named log prefix's elements are the window queue. The returned
// checkpoint has no archive or window queue yet: the caller reads them
// from the log prefix.
func decodeHead(payload []byte) (*Checkpoint, logPrefix, uint64, error) {
	ck, lp, r, err := decodeHeadPrefix(payload)
	if err != nil {
		return nil, logPrefix{}, 0, err
	}
	win := &ck.Core.Window
	win.Now = stream.Time(r.i64())
	inWindow := r.u64()
	if inWindow > lp.count {
		return nil, logPrefix{}, 0, fmt.Errorf("%w: checkpoint head has %d in-window elements in a log of %d", ErrCorrupt, inWindow, lp.count)
	}
	if n := r.count(16); n > 0 {
		win.Active = make([]stream.ActiveRef, n)
		for i := range win.Active {
			win.Active[i] = stream.ActiveRef{ID: stream.ElemID(r.i64()), LastRef: stream.Time(r.i64())}
		}
	}
	// An empty list still costs its 4-byte count, which bounds nlists.
	ck.Core.Lists = make([][]core.Tuple, r.count(4))
	for t := range ck.Core.Lists {
		if n := r.count(24); n > 0 {
			items := make([]core.Tuple, n)
			for i := range items {
				items[i] = core.Tuple{ID: stream.ElemID(r.i64()), Score: math.Float64frombits(r.u64()), LastRef: stream.Time(r.i64())}
			}
			ck.Core.Lists[t] = items
		}
	}
	st := &ck.Core.Stats
	st.ElementsIngested, st.Buckets = r.i64(), r.i64()
	st.UpdateTime = time.Duration(r.i64())
	r.i64() // the deleted delta-replay time, see appendHead
	st.ListUpserts, st.ListDeletes = r.i64(), r.i64()
	// A pending post costs at least id, time and its two counts.
	if n := r.count(8 + 8 + 4 + 4); n > 0 {
		ck.Pending = make([]PostRec, n)
		for i := range ck.Pending {
			p := &ck.Pending[i]
			p.ID, p.Time = r.i64(), r.i64()
			if nrefs := r.count(8); nrefs > 0 {
				p.Refs = make([]int64, nrefs)
				for j := range p.Refs {
					p.Refs[j] = r.i64()
				}
			}
			p.Text = string(r.bytes(r.count(1)))
		}
	}
	if r.short || len(r.b) != 0 {
		return nil, logPrefix{}, 0, fmt.Errorf("%w: checkpoint head payload is malformed (%d stray bytes)", ErrCorrupt, len(r.b))
	}
	return ck, lp, inWindow, nil
}

// reader consumes flat little-endian fields from b. A read past the end
// sets short, empties b and returns zero, so decoders check once at the
// end instead of after every field.
type reader struct {
	b     []byte
	short bool
}

func (r *reader) bytes(n int) []byte {
	if n > len(r.b) {
		r.short, r.b = true, nil
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// count reads a u32 count of items that each occupy at least size encoded
// bytes, and rejects one the remaining bytes cannot hold — so a hostile
// count never sizes an allocation.
func (r *reader) count(size int) int {
	n := r.u32()
	if uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.short, r.b = true, nil
		return 0
	}
	return int(n)
}
