// Package stream implements the social-stream substrate of k-SIR: social
// elements ⟨ts, doc, ref⟩, time-based sliding windows, and the active-element
// set A_t = W_t ∪ {e' : e ∈ W_t ∧ e' ∈ e.ref} (§3.1).
//
// A window has one writer, which advances it bucket by bucket, and any
// number of concurrent readers, each holding a View of one version: the
// per-element tables, read by slot, as the advance that wrote the version
// left them (ActiveWindow, DESIGN.md §6).
package stream

import (
	"fmt"

	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// ElemID identifies a social element. IDs are assigned by the producer and
// must be unique within a stream.
type ElemID int64

// Time is a timestamp in stream time units (seconds by convention).
type Time int64

// Element is a social element: a timestamped bag-of-words document with
// references to earlier elements (retweets, citations, comment parents) and
// a topic distribution inferred from the topic model.
type Element struct {
	ID     ElemID
	TS     Time
	Doc    textproc.Document
	Topics topicmodel.TopicVec
	Refs   []ElemID
	// Text optionally retains the raw text for display in examples and the
	// query CLI; algorithms never read it.
	Text string
}

// String implements fmt.Stringer for debugging.
func (e *Element) String() string {
	return fmt.Sprintf("e%d@%d(words=%d refs=%d)", e.ID, e.TS, e.Doc.Distinct(), len(e.Refs))
}

// Approximate per-value heap costs for ApproxBytes. Exact sizes vary by
// architecture and allocator bucket; these are amd64/arm64 struct sizes
// rounded to the nearest allocator class, good enough for a residency
// budget (the accounting is advisory, never part of exported state).
const (
	elemBaseBytes  = 112 // Element struct + string/slice headers
	termCountBytes = 8   // textproc.TermCount
	topicPairBytes = 12  // one int32 topic + one float64 prob
	refBytes       = 8   // one ElemID
)

// ApproxBytes estimates the heap footprint of the element itself — struct,
// retained text, bag-of-words terms, topic vector and reference list. The
// per-window overhead (map entries, queue slots, ranked-list tuples) is
// accounted separately by ActiveWindow.
func (e *Element) ApproxBytes() int64 {
	return elemBaseBytes +
		int64(len(e.Text)) +
		int64(len(e.Doc.Terms))*termCountBytes +
		int64(e.Topics.Len())*topicPairBytes +
		int64(len(e.Refs))*refBytes
}

// Bucket groups elements that arrive in one batch-update interval of length
// L (§4, Figure 4: the stream "is partitioned into buckets with equal time
// length L").
type Bucket struct {
	Start, End Time // elements have TS in [Start, End]
	Elems      []*Element
}

// Partition splits a timestamp-ordered element slice into buckets of length
// bucketLen, starting at the first element's timestamp. It returns an error
// if elements are out of order or bucketLen is not positive.
func Partition(elems []*Element, bucketLen Time) ([]Bucket, error) {
	if bucketLen <= 0 {
		return nil, fmt.Errorf("stream: bucket length must be positive, got %d", bucketLen)
	}
	if len(elems) == 0 {
		return nil, nil
	}
	var buckets []Bucket
	start := elems[0].TS
	cur := Bucket{Start: start, End: start + bucketLen - 1}
	prev := elems[0].TS
	for _, e := range elems {
		if e.TS < prev {
			return nil, fmt.Errorf("stream: element %d at %d arrives after later timestamp %d", e.ID, e.TS, prev)
		}
		prev = e.TS
		for e.TS > cur.End {
			buckets = append(buckets, cur)
			cur = Bucket{Start: cur.End + 1, End: cur.End + bucketLen}
		}
		cur.Elems = append(cur.Elems, e)
	}
	buckets = append(buckets, cur)
	return buckets, nil
}
