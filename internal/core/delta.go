package core

import (
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// shardOp is one recorded ranked-list op tagged with its topic.
type shardOp struct {
	topic int32
	op    rankedlist.Op
}

// bucketDelta is everything the primary application of one bucket recorded
// for replay onto the recycled buffer: the window's structural delta, the
// scorer-cache delta (entries shared by pointer — they are immutable), and
// the net ranked-list ops per shard. Each worker owns exactly one shard's
// slice during capture and replay, so both directions are race-free, and
// per-list op order is preserved (a list's ops all live in its shard's
// slice, in execution order).
type bucketDelta struct {
	win   *stream.Delta
	cache score.CacheDelta
	ops   [][]shardOp
}

// newBucketDelta returns a delta whose per-shard op slices are recycled
// from the previously replayed delta (writer-owned, so no locking): the
// capture path then allocates only when a bucket outgrows its
// predecessor, instead of churning ~100 bytes per ranked-list op per
// bucket through the garbage collector.
func (g *Engine) newBucketDelta() *bucketDelta {
	d := &bucketDelta{}
	if n := len(g.spentDeltas); n > 0 {
		d.ops = g.spentDeltas[n-1].ops
		g.spentDeltas[n-1] = nil
		g.spentDeltas = g.spentDeltas[:n-1]
		for s := range d.ops {
			d.ops[s] = d.ops[s][:0]
		}
	} else {
		d.ops = make([][]shardOp, g.numShards)
	}
	return d
}

// replayDelta brings the recycled buffer up to the published front by
// replaying the recorded bucket delta, in the same phase order as a
// primary application: window, scorer cache, then the ranked lists sharded
// across the worker pool. After it returns, the buffer's exported state is
// byte-identical to the front's (the §9 equivalence invariant, asserted
// under -race by TestDeltaReplayEquivalence).
func (g *Engine) replayDelta(b *buffer, d *bucketDelta) {
	b.win.ApplyDelta(d.win)
	b.scorer.ApplyCacheDelta(d.cache)
	g.replayShards(b, d.ops)
}

// replayShards applies the recorded per-shard op lists on the shard worker
// pool (runPool): each worker claims whole shards, so every list is
// written by exactly one goroutine and per-list op order is preserved.
func (g *Engine) replayShards(b *buffer, ops [][]shardOp) {
	g.runPool(func(s int) bool { return len(ops[s]) > 0 },
		func(s int) {
			for i := range ops[s] {
				b.lists[ops[s][i].topic].Apply(&ops[s][i].op)
			}
		})
}
