package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// before a checkpoint framed it and, followed by the text, the payload of
// an element-log frame (DESIGN.md §8): a checkpoint frames an archived
// element's record as it is, without decoding it, and a resurrection
// decodes the record it reads back from a frame. The encoding is
// canonical, so equal elements have equal records.

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

// ElementLog reads frames back from a stream's element log (DESIGN.md §8):
// the durable store an archived element is read from once a checkpoint
// has written its frame. internal/persist implements it over the stream's
// elements file.
type ElementLog interface {
	// ReadFrame returns the payload — the record, then the text — of the
	// frame that occupies bytes [start, end) of the log, checked against
	// its CRC. A short read or a failed check is an error.
	ReadFrame(start, end int64) ([]byte, error)
}

// Archive is an arrival-ordered run of the Count elements that left the
// window. It only grows; a prefix of it (Prefix) is immutable. An archived
// element is held one of two ways:
//
//   - inside the durable log prefix — the arrivals a checkpoint has framed
//     into the element log — as where its frame ends, 8 bytes, read back
//     through Log only when a reference resurrects it;
//   - past that prefix, as a record in memory with its text beside it, the
//     string the element held — never copied, since the producer usually
//     still holds it.
//
// A memory-only stream's prefix stays empty, so it holds every element the
// second way.
type Archive struct {
	// Count is the number of archived elements.
	Count int
	// Log reads the durable prefix's frames; nil while there is none.
	Log ElementLog
	// Frames[i] is where arrival i's frame ends in Log; it starts where
	// arrival i-1's ends (arrival 0's at 0). The durable prefix may run
	// past the archived arrivals into the window queue: a window element
	// checkpointed before it left the window is archived as its frame.
	Frames []int64
	// Records holds the records of the archived arrivals past the durable
	// prefix back to back: arrival len(Frames)+j's record ends at Ends[j]
	// (and starts where record j-1 ends, record 0 at 0), and Texts[j] is
	// that element's text.
	Records []byte
	Ends    []int
	Texts   []string
}

// Len is the number of archived elements.
func (a *Archive) Len() int { return a.Count }

// frameStart is where arrival i's frame starts in the log.
func (a *Archive) frameStart(i int) int64 {
	if i == 0 {
		return 0
	}
	return a.Frames[i-1]
}

// Record returns archived element i's record and text: from memory past
// the durable prefix, read back through Log inside it.
func (a *Archive) Record(i int) ([]byte, string, error) {
	if j := i - len(a.Frames); j >= 0 {
		start := 0
		if j > 0 {
			start = a.Ends[j-1]
		}
		return a.Records[start:a.Ends[j]:a.Ends[j]], a.Texts[j], nil
	}
	if a.Log == nil {
		return nil, "", fmt.Errorf("stream: archived element %d is in an element log the archive cannot read", i)
	}
	payload, err := a.Log.ReadFrame(a.frameStart(i), a.Frames[i])
	if err != nil {
		return nil, "", err
	}
	n, ok := RecordLen(payload)
	if !ok {
		return nil, "", fmt.Errorf("stream: element-log frame of archived element %d is too short for its counts", i)
	}
	return payload[:n:n], string(payload[n:]), nil
}

// Append archives e: as nothing new when its frame is already in the
// durable prefix, as a record otherwise.
func (a *Archive) Append(e *Element) {
	if a.Count >= len(a.Frames) {
		a.Records = AppendRecord(a.Records, e)
		a.Ends = append(a.Ends, len(a.Records))
		a.Texts = append(a.Texts, e.Text)
	}
	a.Count++
}

// Prefix returns the first n archived elements with the durable prefix,
// capped so an Append through the result reallocates instead of writing
// into a's storage: later appends to a leave it unchanged.
func (a *Archive) Prefix(n int) Archive {
	p := Archive{Count: n, Log: a.Log, Frames: a.Frames[:len(a.Frames):len(a.Frames)]}
	if tail := n - len(a.Frames); tail > 0 {
		end := a.Ends[tail-1]
		p.Records, p.Ends, p.Texts = a.Records[:end:end], a.Ends[:tail:tail], a.Texts[:tail:tail]
	}
	return p
}

// Elements decodes the archived elements at the given indexes into fresh
// elements (DecodeRecords).
func (a *Archive) Elements(idx ...int) ([]*Element, error) {
	recs := make([][]byte, len(idx))
	texts := make([]string, len(idx))
	for j, i := range idx {
		var err error
		if recs[j], texts[j], err = a.Record(i); err != nil {
			return nil, err
		}
	}
	return DecodeRecords(recs, texts)
}

// Materialize returns the archive with every element held in memory — the
// form a memory-only stream holds it in — reading the durable ones back
// through Log. Equal archives materialize to equal values, however much of
// them was durable.
func (a *Archive) Materialize() (Archive, error) {
	var m Archive
	for i := 0; i < a.Count; i++ {
		rec, text, err := a.Record(i)
		if err != nil {
			return Archive{}, err
		}
		m.Records = append(m.Records, rec...)
		m.Ends = append(m.Ends, len(m.Records))
		m.Texts = append(m.Texts, text)
	}
	m.Count = a.Count
	return m, nil
}

// makeDurable records that a checkpoint framed arrivals first, first+1, …
// into log, their frames ending at ends, and drops the in-memory records
// that now lie inside the durable prefix. It returns the bytes of text it
// dropped. Frames the archive already knows must be the very frames named
// again (a checkpoint that fell back to an older head rewrites them in
// place), and first may not leave a gap after them. The dropped records
// are left to any prefix sharing them: the rest moves to fresh storage.
func (a *Archive) makeDurable(log ElementLog, first int, ends []int64) (int64, error) {
	if first > len(a.Frames) {
		return 0, fmt.Errorf("stream: element log frames from arrival %d leave a gap after the %d known", first, len(a.Frames))
	}
	known := min(len(a.Frames)-first, len(ends))
	for k, end := range ends[:known] {
		if a.Frames[first+k] != end {
			return 0, fmt.Errorf("stream: element log frame of arrival %d moved from %d to %d", first+k, a.Frames[first+k], end)
		}
	}
	prev := len(a.Frames)
	a.Log = log
	a.Frames = append(a.Frames, ends[known:]...)
	drop := min(len(a.Frames), a.Count) - prev
	if drop <= 0 {
		return 0, nil
	}
	var text int64
	for _, t := range a.Texts[:drop] {
		text += int64(len(t))
	}
	if drop == len(a.Ends) {
		a.Records, a.Ends, a.Texts = nil, nil, nil
		return text, nil
	}
	cut := a.Ends[drop-1]
	a.Records = slices.Clone(a.Records[cut:])
	ends2 := make([]int, len(a.Ends)-drop)
	for j, e := range a.Ends[drop:] {
		ends2[j] = e - cut
	}
	a.Ends = ends2
	a.Texts = slices.Clone(a.Texts[drop:])
	return text, nil
}

// check verifies the archive's shape: durable frames that end strictly
// increasing and a log to read them from, then one text and one end per
// archived element past the durable prefix, ends rising to the end of
// Records, and every record exactly as long as its counts say.
func (a *Archive) check() error {
	if a.Count < 0 {
		return fmt.Errorf("stream: archive of %d elements", a.Count)
	}
	prev := int64(0)
	for i, end := range a.Frames {
		if end <= prev {
			return fmt.Errorf("stream: element-log frame %d ends at %d, not after %d", i, end, prev)
		}
		prev = end
	}
	if a.Log == nil && min(a.Count, len(a.Frames)) > 0 {
		return fmt.Errorf("stream: archive has durable elements but no element log")
	}
	if want := max(a.Count-len(a.Frames), 0); len(a.Ends) != want || len(a.Texts) != want {
		return fmt.Errorf("stream: archive has %d records and %d texts for %d elements past the durable prefix", len(a.Ends), len(a.Texts), want)
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
