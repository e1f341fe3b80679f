package core

import (
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// topicOp is one recorded ranked-list op tagged with its topic.
type topicOp struct {
	topic int32
	op    rankedlist.Op
}

// bucketDelta is everything the primary application of one bucket recorded
// for replay onto the recycled buffer: the window's structural delta, the
// scorer-cache delta (entries shared by pointer — they are immutable), and
// the net ranked-list ops in execution order.
type bucketDelta struct {
	win   *stream.Delta
	cache score.CacheDelta
	ops   []topicOp
}

// newBucketDelta returns a delta whose op slice is recycled from the
// previously replayed delta (writer-owned, so no locking): the capture path
// then allocates only when a bucket outgrows its predecessor, instead of
// churning ~100 bytes per ranked-list op per bucket through the garbage
// collector.
func (g *Engine) newBucketDelta() *bucketDelta {
	d := &bucketDelta{ops: g.spentOps[:0]}
	g.spentOps = nil
	return d
}

// replay brings the recycled buffer up to the published front by
// replaying the recorded bucket delta, in the same phase order as a
// primary application: window, scorer cache, then the ranked-list ops in
// the order they were recorded. After it returns, the buffer's exported
// state is byte-identical to the front's (the §9 equivalence invariant,
// asserted under -race by TestDeltaReplayEquivalence).
func (b *buffer) replay(d *bucketDelta) {
	b.win.ApplyDelta(d.win)
	b.scorer.ApplyCacheDelta(d.cache)
	for i := range d.ops {
		b.lists[d.ops[i].topic].Apply(&d.ops[i].op)
	}
}
