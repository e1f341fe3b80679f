package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/stream"
)

// listOp is one ranked-list maintenance operation of Algorithm 1, routed to
// the shard owning its topic. Ops for the same list always execute in the
// order partition emitted them, so the lists are bit-identical to a
// single-threaded run regardless of the shard count.
type listOp struct {
	e     *stream.Element
	topic int32
	te    stream.Time // t_e at upsert time; unused for deletes
	del   bool
}

// shardOf routes a topic to its shard.
func (g *Engine) shardOf(topic int32) int { return int(topic) % g.numShards }

// partition fans the changeset out into per-shard op lists, preserving the
// engine's canonical order: expired deletes first (an element can expire in
// the same advance it was (re-)inserted only if it entered already out of
// window, in which case it must not linger in the lists), then upserts for
// inserts and updates.
func (g *Engine) partition(b *buffer, cs stream.ChangeSet) [][]listOp {
	ops := make([][]listOp, g.numShards)
	for _, e := range cs.Expired {
		for _, topic := range e.Topics.Topics {
			s := g.shardOf(topic)
			ops[s] = append(ops[s], listOp{e: e, topic: topic, del: true})
		}
	}
	expired := make(map[stream.ElemID]struct{}, len(cs.Expired))
	for _, e := range cs.Expired {
		expired[e.ID] = struct{}{}
	}
	upsert := func(e *stream.Element) {
		if _, gone := expired[e.ID]; gone {
			return
		}
		te, _ := b.win.LastRef(e.ID)
		for _, topic := range e.Topics.Topics {
			s := g.shardOf(topic)
			ops[s] = append(ops[s], listOp{e: e, topic: topic, te: te})
		}
	}
	for _, e := range cs.Inserted {
		upsert(e)
	}
	for _, e := range cs.Updated {
		upsert(e)
	}
	return ops
}

// runShards executes the per-shard op lists on the worker pool. Each shard
// is claimed by exactly one worker, so shard list state, shard counters and
// the recorded delta's per-shard op slices are written race-free; workers
// share read-only access to the buffer's window and scorer (every element
// they score is already cached by OnChange).
func (g *Engine) runShards(b *buffer, ops [][]listOp, rec *bucketDelta) {
	g.runPool(func(s int) bool { return len(ops[s]) > 0 },
		func(s int) { g.runShard(b, s, ops[s], rec) })
}

// runPool runs fn(shard) for every shard hasWork reports busy, on a
// worker pool where each shard is claimed by exactly one worker — the one
// dispatch scheme shared by primary maintenance (runShards) and delta
// replay (replayShards), so the two paths cannot drift.
func (g *Engine) runPool(hasWork func(shard int) bool, fn func(shard int)) {
	work := make(chan int, g.numShards)
	busy := 0
	for s := 0; s < g.numShards; s++ {
		if hasWork(s) {
			work <- s
			busy++
		}
	}
	close(work)
	if busy == 0 {
		return
	}
	if busy == 1 || g.numShards == 1 {
		for s := range work {
			fn(s)
		}
		return
	}
	workers := g.numShards
	if workers > busy {
		workers = busy
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := range work {
				fn(s)
			}
		}()
	}
	wg.Wait()
}

// yieldEvery bounds how many ranked-list ops a shard worker executes
// between cooperative yields. Queries never block on ingest (they read the
// published snapshot), but on a machine with few cores they still need the
// scheduler to hand them a slice mid-bucket; without the yield a heavy
// bucket would pin every core for its whole duration and reader latency
// would degrade to the preemption quantum. The locked seed engine could
// not have used this — its queries were blocked on the mutex regardless.
const yieldEvery = 128

// runShard applies one shard's ops: deletes drop expired tuples, upserts
// recompute δ_i(e) and (re)position the tuple (Algorithm 1 lines 7–13).
// Every structural outcome is appended to the delta's op list for this
// shard — preallocated to the exact op count, owned by this worker, so
// capture is race-free and allocation-flat — carrying the computed score
// so replay never rescores.
func (g *Engine) runShard(b *buffer, shard int, ops []listOp, rec *bucketDelta) {
	start := time.Now()
	// Reuse the recycled slice when it is big enough (newBucketDelta
	// hands back the previously replayed delta's storage).
	out := rec.ops[shard]
	if cap(out) < len(ops) {
		out = make([]shardOp, 0, len(ops))
	}
	var ups, dels int64
	for i, op := range ops {
		if i%yieldEvery == yieldEvery-1 {
			runtime.Gosched()
		}
		if op.del {
			if rop, ok := b.lists[op.topic].DeleteRecorded(op.e.ID); ok {
				out = append(out, shardOp{topic: op.topic, op: rop})
				dels++
			}
			continue
		}
		score := b.scorer.TopicScore(op.e, op.topic)
		out = append(out, shardOp{topic: op.topic, op: b.lists[op.topic].UpsertRecorded(op.e.ID, score, op.te)})
		ups++
	}
	rec.ops[shard] = out
	ss := &g.shardStats[shard]
	ss.ListUpserts += ups
	ss.ListDeletes += dels
	ss.Busy += time.Since(start)
}
