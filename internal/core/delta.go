package core

import (
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// bucketDelta is everything the primary application of one bucket recorded
// for replay onto the recycled buffer: the window's structural delta and
// the scorer-cache delta (entries shared by pointer — they are immutable).
// The ranked lists need none: one versioned set serves both buffers.
type bucketDelta struct {
	win   *stream.Delta
	cache score.CacheDelta
}

// replay brings the recycled buffer up to the published front by
// replaying the recorded bucket delta, in the same phase order as a
// primary application: window, then scorer cache. After it returns, the
// buffer's exported state is byte-identical to the front's (the §9
// equivalence invariant, asserted under -race by
// TestDeltaReplayEquivalence).
func (b *buffer) replay(d *bucketDelta) {
	b.win.ApplyDelta(d.win)
	b.scorer.ApplyCacheDelta(d.cache)
}
