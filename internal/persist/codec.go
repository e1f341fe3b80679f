package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
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
//	payload = | id i64 | ts i64 | doc len u32
//	          | nterms u32 | (word u32, count u32)...
//	          | ntopics u32 | topic u32... | prob f64...
//	          | nrefs u32 | ref i64... | text (the rest) |
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
// header plus a payload with every count zero and no text.
const elemFrameMin = 8 + 8 + 8 + 4 + 4 + 4 + 4

// elementFrameSize is the exact size of e's frame.
func elementFrameSize(e *stream.Element) int {
	return elemFrameMin + 8*len(e.Doc.Terms) + (4+8)*len(e.Topics.Topics) + 8*len(e.Refs) + len(e.Text)
}

// appendElement appends e's frame to buf.
func appendElement(buf []byte, e *stream.Element) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	p := len(buf)
	buf = appendI64(buf, int64(e.ID))
	buf = appendI64(buf, int64(e.TS))
	buf = appendU32(buf, uint32(e.Doc.Len))
	buf = appendU32(buf, uint32(len(e.Doc.Terms)))
	for _, t := range e.Doc.Terms {
		buf = appendU32(buf, uint32(t.Word))
		buf = appendU32(buf, uint32(t.Count))
	}
	if len(e.Topics.Topics) != len(e.Topics.Probs) {
		return nil, fmt.Errorf("persist: element %d has %d topics for %d probabilities", e.ID, len(e.Topics.Topics), len(e.Topics.Probs))
	}
	buf = appendU32(buf, uint32(len(e.Topics.Topics)))
	for _, t := range e.Topics.Topics {
		buf = appendU32(buf, uint32(t))
	}
	for _, pr := range e.Topics.Probs {
		buf = appendU64(buf, math.Float64bits(pr))
	}
	buf = appendU32(buf, uint32(len(e.Refs)))
	for _, r := range e.Refs {
		buf = appendI64(buf, int64(r))
	}
	buf = append(buf, e.Text...)
	payload := buf[p:]
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("persist: element %d of %d bytes exceeds the %d byte limit", e.ID, len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// decodeElements decodes exactly count element frames that together fill
// data — a head's durable log prefix. Unlike a WAL tail, nothing here may
// be torn: the prefix was fsynced before the head naming it was written,
// so any short, oversized or CRC-failing frame is ErrCorrupt.
//
// It runs two passes. The first checks every frame and sums what the
// elements hold; the second decodes into one allocation per kind of field
// — the archive never drops an element, so nothing is lost by their
// sharing storage, and a cold touch of a long-lived stream costs a dozen
// allocations instead of several per element ever ingested. Every size
// comes from bytes already checked, so a count never allocates beyond what
// the bytes that remain could encode.
func decodeElements(data []byte, count uint64) ([]*stream.Element, error) {
	if count > uint64(len(data)/elemFrameMin) {
		return nil, fmt.Errorf("%w: element log of %d bytes cannot hold %d elements", ErrCorrupt, len(data), count)
	}
	var nTerms, nTopics, nRefs, nText int
	rest := data
	for i := uint64(0); i < count; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: element log ends inside frame %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n > maxRecordSize || n > len(rest)-8 {
			return nil, fmt.Errorf("%w: element frame %d claims %d bytes, %d remain", ErrCorrupt, i, n, len(rest)-8)
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
			return nil, fmt.Errorf("%w: element frame %d checksum mismatch", ErrCorrupt, i)
		}
		r := reader{b: payload}
		r.bytes(8 + 8 + 4) // id, ts, doc len
		terms := r.count(8)
		r.bytes(8 * terms)
		topics := r.count(4 + 8)
		r.bytes((4 + 8) * topics)
		refs := r.count(8)
		r.bytes(8 * refs)
		if r.short {
			return nil, fmt.Errorf("%w: element frame %d of %d bytes is too short for its counts", ErrCorrupt, i, n)
		}
		nTerms, nTopics, nRefs, nText = nTerms+terms, nTopics+topics, nRefs+refs, nText+len(r.b)
		rest = rest[8+n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d stray bytes after %d element frames", ErrCorrupt, len(rest), count)
	}

	elems := make([]stream.Element, count)
	log := make([]*stream.Element, count)
	terms := make([]textproc.TermCount, nTerms)
	topics := make([]int32, nTopics)
	probs := make([]float64, nTopics)
	refs := make([]stream.ElemID, nRefs)
	var text strings.Builder
	text.Grow(nText)
	for i := range elems {
		n := int(binary.LittleEndian.Uint32(data))
		r := reader{b: data[8 : 8+n]}
		data = data[8+n:]
		e := &elems[i]
		log[i] = e
		e.ID = stream.ElemID(r.i64())
		e.TS = stream.Time(r.i64())
		e.Doc.Len = int(r.u32())
		if n := int(r.u32()); n > 0 {
			e.Doc.Terms, terms = terms[:n:n], terms[n:]
			for j := range e.Doc.Terms {
				e.Doc.Terms[j] = textproc.TermCount{Word: textproc.WordID(r.u32()), Count: int32(r.u32())}
			}
		}
		if n := int(r.u32()); n > 0 {
			e.Topics.Topics, topics = topics[:n:n], topics[n:]
			for j := range e.Topics.Topics {
				e.Topics.Topics[j] = int32(r.u32())
			}
			e.Topics.Probs, probs = probs[:n:n], probs[n:]
			for j := range e.Topics.Probs {
				e.Topics.Probs[j] = math.Float64frombits(r.u64())
			}
		}
		if n := int(r.u32()); n > 0 {
			e.Refs, refs = refs[:n:n], refs[n:]
			for j := range e.Refs {
				e.Refs[j] = stream.ElemID(r.i64())
			}
		}
		// The builder was grown to the total, so it never moves and each
		// String call is a view of the one buffer, not a copy.
		start := text.Len()
		text.Write(r.b)
		e.Text = text.String()[start:]
	}
	return log, nil
}

// logPrefix names the durable part of an element log: the first count
// elements occupy exactly the first bytes bytes of the file.
type logPrefix struct {
	count uint64
	bytes int64
}

// appendHead appends the head payload of ck over the given log prefix.
func appendHead(buf []byte, ck *Checkpoint, lp logPrefix) []byte {
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
	buf = appendU64(buf, uint64(win.InWindow))
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
	for _, v := range [...]int64{st.ElementsIngested, st.Buckets, int64(st.UpdateTime), int64(st.ReplayTime), st.ListUpserts, st.ListDeletes} {
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

// decodeHead decodes a whole head payload. The returned checkpoint has no
// Core.Window.Log yet: the caller reads the named log prefix.
func decodeHead(payload []byte) (*Checkpoint, logPrefix, error) {
	ck, lp, r, err := decodeHeadPrefix(payload)
	if err != nil {
		return nil, logPrefix{}, err
	}
	win := &ck.Core.Window
	win.Now = stream.Time(r.i64())
	inWindow := r.u64()
	if inWindow > lp.count {
		return nil, logPrefix{}, fmt.Errorf("%w: checkpoint head has %d in-window elements in a log of %d", ErrCorrupt, inWindow, lp.count)
	}
	win.InWindow = int(inWindow)
	if n := r.count(16); n > 0 {
		win.Active = make([]stream.ActiveRef, n)
		for i := range win.Active {
			win.Active[i] = stream.ActiveRef{ID: stream.ElemID(r.i64()), LastRef: stream.Time(r.i64())}
		}
	}
	// An empty list still costs its 4-byte count, which bounds nlists.
	ck.Core.Lists = make([][]rankedlist.Item, r.count(4))
	for t := range ck.Core.Lists {
		if n := r.count(24); n > 0 {
			items := make([]rankedlist.Item, n)
			for i := range items {
				items[i] = rankedlist.Item{ID: stream.ElemID(r.i64()), Score: math.Float64frombits(r.u64()), LastRef: stream.Time(r.i64())}
			}
			ck.Core.Lists[t] = items
		}
	}
	st := &ck.Core.Stats
	st.ElementsIngested, st.Buckets = r.i64(), r.i64()
	st.UpdateTime, st.ReplayTime = time.Duration(r.i64()), time.Duration(r.i64())
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
		return nil, logPrefix{}, fmt.Errorf("%w: checkpoint head payload is malformed (%d stray bytes)", ErrCorrupt, len(r.b))
	}
	return ck, lp, nil
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
