package ksir

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Subscription is a standing (continuous) k-SIR query: the stream re-runs
// it as the window slides and reports each refresh to the handler. This is
// the publish/subscribe deployment mode the related work targets [9, 28]
// lifted onto representative results: "keep me posted with the k most
// representative posts about X".
type Subscription struct {
	id      int64
	ctx     context.Context
	query   Query
	every   time.Duration
	handler func(Result)
	// onError receives this subscription's refresh failures; when nil
	// they are only counted in failures.
	onError func(error)
	nextAt  int64 // stream time of the next refresh
	// changedOnly suppresses refreshes whose result set is identical to
	// the previous one.
	changedOnly bool
	lastIDs     []int64 // nil until the first delivery
	failures    atomic.Int64
	// gone is set by Unsubscribe so an in-flight fireSubscriptions sweep
	// (which iterates a copy of the registration list) skips a
	// subscription removed meanwhile, by a handler or another goroutine.
	gone atomic.Bool
}

// ID returns the subscription's stream-unique identifier.
func (sub *Subscription) ID() int64 { return sub.id }

// Failures returns how many refreshes of this subscription have errored.
// Failed refreshes are isolated (they never abort ingestion) and retried
// at the next interval.
func (sub *Subscription) Failures() int64 { return sub.failures.Load() }

// SubscribeOption configures a Subscription.
type SubscribeOption func(*Subscription)

// OnlyOnChange suppresses refreshes whose result posts are unchanged.
func OnlyOnChange() SubscribeOption {
	return func(s *Subscription) { s.changedOnly = true }
}

// OnError installs the subscription's error hook. A refresh that fails
// reports here and is dropped; ingestion continues and the other
// subscriptions still fire. Without the hook the failure is only counted
// in Failures.
func OnError(h func(error)) SubscribeOption {
	return func(s *Subscription) { s.onError = h }
}

// subscriptions is a stream's standing-query registry. Registration and
// removal happen under mu from any goroutine; the committing caller copies
// the list under mu for each sweep and fires the copy without it.
type subscriptions struct {
	mu   sync.Mutex
	list []*Subscription
	seq  int64
	// n is len(list), readable without mu: Stats and the sweep's fast
	// path never wait on a registration or a hibernation.
	n atomic.Int64
}

// remove unregisters sub, if it is registered, and marks it gone.
func (r *subscriptions) remove(sub *Subscription) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := slices.Index(r.list, sub); i >= 0 {
		sub.gone.Store(true)
		r.list = slices.Delete(r.list, i, i+1)
		r.n.Store(int64(len(r.list)))
	}
}

// Subscribe registers a standing query re-evaluated every `every` of stream
// time, starting at the next bucket boundary. The handler runs
// synchronously in the goroutine whose Add or Flush completes the bucket —
// possibly another producer's, whose commit covered that write — under the
// stream's lock (keep it fast; hand off to a channel for slow consumers).
// A handler may Query, Subscribe and Unsubscribe on its own stream, but
// must not call its write methods or Close: they would wait behind the
// very commit that runs the handler. A handler's panic unwinds that
// goroutine and closes the stream: the operations its commit had not
// finished, and every later one, fail with ErrStreamClosed.
//
// The context bounds the subscription's lifetime: once ctx is done the
// subscription stops firing and is removed at the next bucket boundary (a
// nil ctx means "until Unsubscribe"). Each delivered Result carries the
// bucket sequence it was computed at in Result.Bucket.
//
// A refresh that fails does not abort the Add/Flush that triggered it: the
// error is reported through the OnError hook, if any, and counted in
// Failures.
//
// Subscribing to a hibernated stream reactivates it first, as Query does;
// while a subscription is registered the stream refuses to hibernate.
func (s *Stream) Subscribe(ctx context.Context, q Query, every time.Duration, handler func(Result), opts ...SubscribeOption) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.K <= 0 {
		return nil, fmt.Errorf("%w: needs K > 0", ErrBadSubscription)
	}
	if len(q.Keywords) == 0 && len(q.Vector) == 0 {
		return nil, fmt.Errorf("%w: needs Keywords or Vector", ErrBadSubscription)
	}
	if every < s.opts.Bucket {
		return nil, fmt.Errorf("%w: refresh interval %v shorter than the bucket %v (results only change per bucket)", ErrBadSubscription, every, s.opts.Bucket)
	}
	if every%time.Second != 0 {
		return nil, fmt.Errorf("%w: refresh interval %v is not a whole number of seconds", ErrBadSubscription, every)
	}
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadSubscription)
	}
	sub := &Subscription{ctx: ctx, query: q, every: every, handler: handler}
	for _, opt := range opts {
		opt(sub)
	}
	for {
		if _, err := s.resident(ctx); err != nil {
			return nil, err
		}
		r := &s.subs
		r.mu.Lock()
		// A hibernation that ran since resident returned left no state to
		// fire the subscription: reactivate again.
		if es := s.stp.Load(); es != nil {
			r.seq++
			sub.id = r.seq
			sub.nextAt = int64(es.engine.Now()) + int64(every/time.Second)
			r.list = append(r.list, sub)
			r.n.Store(int64(len(r.list)))
			r.mu.Unlock()
			return sub, nil
		}
		r.mu.Unlock()
	}
}

// Unsubscribe removes a standing query. It is a no-op for nil or an
// already-removed subscription, and safe to call from any goroutine,
// inside a subscription handler too (e.g. a one-shot query unsubscribing
// itself).
func (s *Stream) Unsubscribe(sub *Subscription) {
	if sub != nil {
		s.subs.remove(sub)
	}
}

// fireSubscriptions runs every due standing query after the window advanced
// to stream time now. Subscriber failures are isolated: a refresh that
// errors is reported to its hook and skipped, never aborting the ingest
// that triggered it or starving the remaining subscriptions. Subscriptions
// whose context is done are dropped.
//
// The sweep iterates a copy of the registration list, so handlers may
// re-entrantly Subscribe (the new subscription starts firing next bucket)
// or Unsubscribe (the gone flag keeps this sweep from firing it).
func (s *engineStream) fireSubscriptions(now int64) {
	r := s.subs
	if r == nil || r.n.Load() == 0 {
		return
	}
	r.mu.Lock()
	subs := slices.Clone(r.list)
	r.mu.Unlock()
	var expired []*Subscription
	for _, sub := range subs {
		if sub.gone.Load() {
			continue // unsubscribed re-entrantly during this sweep
		}
		if sub.ctx.Err() != nil {
			expired = append(expired, sub) // context done: auto-unsubscribe
			continue
		}
		if now < sub.nextAt {
			continue
		}
		// Advance in whole intervals so a long gap fires once, not per
		// missed interval — and so a failing query retries at the next
		// interval instead of every bucket.
		step := int64(sub.every / time.Second)
		for sub.nextAt <= now {
			sub.nextAt += step
		}
		res, err := s.query(sub.ctx, sub.query)
		if err != nil {
			// A context cancelled mid-refresh is a normal shutdown (e.g.
			// an SSE client disconnecting), not a refresh failure: drop
			// the subscription like the expired path, without counting.
			if sub.ctx.Err() != nil {
				expired = append(expired, sub)
				continue
			}
			sub.failures.Add(1)
			if sub.onError != nil {
				sub.onError(fmt.Errorf("ksir: subscription %d: %w", sub.id, err))
			}
			continue
		}
		if sub.changedOnly {
			ids := resultIDs(res)
			if sub.lastIDs != nil && slices.Equal(ids, sub.lastIDs) {
				continue
			}
			sub.lastIDs = ids
		}
		sub.handler(res)
	}
	for _, sub := range expired {
		r.remove(sub)
	}
}

func resultIDs(res Result) []int64 {
	ids := make([]int64, len(res.Posts))
	for i, p := range res.Posts {
		ids[i] = p.ID
	}
	return ids
}
