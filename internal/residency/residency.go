// Package residency is the hub's hot-tier policy as plain values (DESIGN.md
// §11): which resident streams go when the tier is over its budget. Like
// connector/backoff it holds no goroutine, no lock and no clock — times are
// int64 nanoseconds the caller passes in — so every decision is a
// deterministic function of its inputs that tests enumerate instead of
// scheduling. The hub keeps the mechanism: the per-handle atomics these
// values are snapshotted from, and every hibernate and activate call.
package residency

import "sort"

// Budget bounds the hot tier: at most MaxStreams resident streams holding
// at most MaxBytes approximate bytes between them. Zero disables the
// respective bound; the zero Budget bounds nothing.
type Budget struct {
	MaxStreams int
	MaxBytes   int64
}

// Enabled reports whether the budget bounds anything.
func (b Budget) Enabled() bool { return b.MaxStreams > 0 || b.MaxBytes > 0 }

// Candidate is one resident stream as the walk sees it.
type Candidate struct {
	// Touch is the stream's last-touch clock; colder is smaller.
	Touch int64
	// Bytes is its approximate resident footprint.
	Bytes int64
}

// Walk visits cands coldest first — equal touches in slice order — and
// offers each to evict until the budget holds. evict reports whether the
// stream really went; a refused victim stays counted and the walk moves on
// to the next-coldest. The victims that went are returned, as indexes into
// cands in the order they went; a nil evict accepts every victim, which
// makes Walk the pure decision.
func (b Budget) Walk(cands []Candidate, evict func(i int) bool) []int {
	n, bytes := len(cands), int64(0)
	for _, c := range cands {
		bytes += c.Bytes
	}
	over := func() bool {
		return (b.MaxStreams > 0 && n > b.MaxStreams) || (b.MaxBytes > 0 && bytes > b.MaxBytes)
	}
	if !over() {
		return nil
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return cands[order[x]].Touch < cands[order[y]].Touch })
	var victims []int
	for _, i := range order {
		if !over() {
			break
		}
		if evict == nil || evict(i) {
			victims = append(victims, i)
			n--
			bytes -= cands[i].Bytes
		}
	}
	return victims
}
