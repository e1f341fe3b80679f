package stream

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/social-streams/ksir/internal/textproc"
)

// A record is an element encoded without its text, in flat little-endian
// fields:
//
//	| id i64 | ts i64 | doc len u32
//	| nterms u32 | (word u32, count u32)...
//	| ntopics u32 | topic u32... | prob f64...
//	| nrefs u32 | ref i64... |
//
// It is the archive's in-memory form of an element that left the window
// and, followed by the text, the payload of an element-log frame
// (DESIGN.md §8): a checkpoint frames an archived element's record as it
// is, without decoding it. The encoding is canonical, so equal elements
// have equal records.

// RecordMin is the size of a record whose counts are all zero.
const RecordMin = 8 + 8 + 4 + 4 + 4 + 4

// RecordSize is the exact size of e's record.
func RecordSize(e *Element) int {
	return RecordMin + 8*len(e.Doc.Terms) + (4+8)*len(e.Topics.Topics) + 8*len(e.Refs)
}

// AppendRecord appends e's record to buf. e must have one probability per
// topic (Advance and Restore refuse any other element).
func AppendRecord(buf []byte, e *Element) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(e.ID))
	buf = le.AppendUint64(buf, uint64(e.TS))
	buf = le.AppendUint32(buf, uint32(e.Doc.Len))
	buf = le.AppendUint32(buf, uint32(len(e.Doc.Terms)))
	for _, t := range e.Doc.Terms {
		buf = le.AppendUint32(buf, uint32(t.Word))
		buf = le.AppendUint32(buf, uint32(t.Count))
	}
	buf = le.AppendUint32(buf, uint32(len(e.Topics.Topics)))
	for _, t := range e.Topics.Topics {
		buf = le.AppendUint32(buf, uint32(t))
	}
	for _, p := range e.Topics.Probs[:len(e.Topics.Topics)] {
		buf = le.AppendUint64(buf, math.Float64bits(p))
	}
	buf = le.AppendUint32(buf, uint32(len(e.Refs)))
	for _, r := range e.Refs {
		buf = le.AppendUint64(buf, uint64(r))
	}
	return buf
}

// RecordLen returns the length of the record b starts with — what follows
// it in an element-log payload is the text — or false when b is too short
// for the counts it holds.
func RecordLen(b []byte) (int, bool) {
	le := binary.LittleEndian
	n := 8 + 8 + 4
	for _, size := range [...]int{8, 4 + 8, 8} { // terms, topics, refs
		if len(b) < n+4 {
			return 0, false
		}
		// Each count is bounded by what b can hold, so n never overflows.
		c := int(le.Uint32(b[n:]))
		if c > (len(b)-n-4)/size {
			return 0, false
		}
		n += 4 + c*size
	}
	return n, true
}

// recordID and recordTS read a valid record's fixed leading fields.
func recordID(rec []byte) ElemID { return ElemID(binary.LittleEndian.Uint64(rec)) }
func recordTS(rec []byte) Time   { return Time(binary.LittleEndian.Uint64(rec[8:])) }

// DecodeRecords decodes records — each exactly one record, as RecordLen
// measures it — with their texts into fresh elements. The elements' slices
// share one allocation per kind of field, so decoding many costs a handful
// of allocations instead of several per element; the texts are adopted,
// not copied.
func DecodeRecords(recs [][]byte, texts []string) ([]*Element, error) {
	if len(texts) != len(recs) {
		return nil, fmt.Errorf("stream: %d texts for %d records", len(texts), len(recs))
	}
	if len(recs) == 0 {
		return nil, nil
	}
	var need slabSize
	for i, rec := range recs {
		if n, ok := RecordLen(rec); !ok || n != len(rec) {
			return nil, fmt.Errorf("stream: record %d of %d bytes does not match its counts", i, len(rec))
		}
		need.add(rec)
	}
	s := newSlab(need)
	out := make([]*Element, len(recs))
	for i, rec := range recs {
		out[i] = s.decode(rec, texts[i])
	}
	return out, nil
}

// slab is storage that decoded elements carve their fields from.
type slab struct {
	elems  []Element
	terms  []textproc.TermCount
	topics []int32
	probs  []float64
	refs   []ElemID
}

// slabSize counts elements and their fields (a topic is one topic and one
// probability).
type slabSize struct{ elems, terms, topics, refs int }

// counts reads a valid record's term, topic and reference counts.
func counts(rec []byte) slabSize {
	le := binary.LittleEndian
	terms := int(le.Uint32(rec[20:]))
	topics := int(le.Uint32(rec[24+8*terms:]))
	refs := int(le.Uint32(rec[28+8*terms+12*topics:]))
	return slabSize{1, terms, topics, refs}
}

// add grows n by what the valid record rec decodes into.
func (n *slabSize) add(rec []byte) {
	c := counts(rec)
	n.elems, n.terms, n.topics, n.refs = n.elems+c.elems, n.terms+c.terms, n.topics+c.topics, n.refs+c.refs
}

// newSlab returns empty storage of size n.
func newSlab(n slabSize) *slab {
	return &slab{
		elems:  make([]Element, 0, n.elems),
		terms:  make([]textproc.TermCount, 0, n.terms),
		topics: make([]int32, 0, n.topics),
		probs:  make([]float64, 0, n.topics),
		refs:   make([]ElemID, 0, n.refs),
	}
}

// decode decodes a valid record and its text into an element carved from
// s, which must have room for it.
func (s *slab) decode(rec []byte, text string) *Element {
	le := binary.LittleEndian
	s.elems = s.elems[:len(s.elems)+1]
	e := &s.elems[len(s.elems)-1]
	e.ID, e.TS, e.Text = recordID(rec), recordTS(rec), text
	e.Doc.Len = int(le.Uint32(rec[16:]))
	p := 20
	count := func() int {
		n := int(le.Uint32(rec[p:]))
		p += 4
		return n
	}
	if n := count(); n > 0 {
		e.Doc.Terms = carve(&s.terms, n)
		for j := range e.Doc.Terms {
			e.Doc.Terms[j] = textproc.TermCount{Word: textproc.WordID(le.Uint32(rec[p:])), Count: int32(le.Uint32(rec[p+4:]))}
			p += 8
		}
	}
	if n := count(); n > 0 {
		e.Topics.Topics, e.Topics.Probs = carve(&s.topics, n), carve(&s.probs, n)
		for j := range e.Topics.Topics {
			e.Topics.Topics[j] = int32(le.Uint32(rec[p:]))
			p += 4
		}
		for j := range e.Topics.Probs {
			e.Topics.Probs[j] = math.Float64frombits(le.Uint64(rec[p:]))
			p += 8
		}
	}
	if n := count(); n > 0 {
		e.Refs = carve(&s.refs, n)
		for j := range e.Refs {
			e.Refs[j] = ElemID(le.Uint64(rec[p:]))
			p += 8
		}
	}
	return e
}

// carve takes the next n entries of *free, capped so that appending to
// them cannot reach the entries carved after.
func carve[T any](free *[]T, n int) []T {
	start := len(*free)
	*free = (*free)[:start+n]
	return (*free)[start : start+n : start+n]
}

// Archive is an arrival-ordered run of elements that left the window, one
// record each, with each element's text beside its record as the string
// the element held — never copied, since the producer usually still holds
// it. It only grows; a prefix of it (Prefix) is immutable.
type Archive struct {
	// Records holds the records back to back.
	Records []byte
	// Ends[i] is where record i ends in Records; it starts where record
	// i-1 ends (record 0 at 0).
	Ends []int
	// Texts[i] is the text of the element of record i.
	Texts []string
}

// Len is the number of archived elements.
func (a *Archive) Len() int { return len(a.Ends) }

// Record returns record i.
func (a *Archive) Record(i int) []byte {
	start := 0
	if i > 0 {
		start = a.Ends[i-1]
	}
	return a.Records[start:a.Ends[i]:a.Ends[i]]
}

// Append archives e.
func (a *Archive) Append(e *Element) {
	a.Records = AppendRecord(a.Records, e)
	a.Ends = append(a.Ends, len(a.Records))
	a.Texts = append(a.Texts, e.Text)
}

// Prefix returns the first n archived elements, capped so an Append
// through the result reallocates instead of writing into a's storage:
// later appends to a leave it unchanged.
func (a *Archive) Prefix(n int) Archive {
	if n == 0 {
		return Archive{}
	}
	end := a.Ends[n-1]
	return Archive{Records: a.Records[:end:end], Ends: a.Ends[:n:n], Texts: a.Texts[:n:n]}
}

// Elements decodes the archived elements at the given indexes into fresh
// elements (DecodeRecords).
func (a *Archive) Elements(idx ...int) ([]*Element, error) {
	recs := make([][]byte, len(idx))
	texts := make([]string, len(idx))
	for j, i := range idx {
		recs[j], texts[j] = a.Record(i), a.Texts[i]
	}
	return DecodeRecords(recs, texts)
}

// check verifies the archive's shape: one text and one end per record,
// ends rising to the end of Records, and every record exactly as long as
// its counts say.
func (a *Archive) check() error {
	if len(a.Texts) != len(a.Ends) {
		return fmt.Errorf("stream: archive has %d texts for %d records", len(a.Texts), len(a.Ends))
	}
	start := 0
	for i, end := range a.Ends {
		if end < start || end > len(a.Records) {
			return fmt.Errorf("stream: archive record %d ends at %d, outside [%d, %d]", i, end, start, len(a.Records))
		}
		if n, ok := RecordLen(a.Records[start:end]); !ok || n != end-start {
			return fmt.Errorf("stream: archive record %d of %d bytes does not match its counts", i, end-start)
		}
		start = end
	}
	if start != len(a.Records) {
		return fmt.Errorf("stream: %d stray bytes after the archive's records", len(a.Records)-start)
	}
	return nil
}
