package ksir

import (
	"context"
	"fmt"
	"slices"
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
	// onError receives this subscription's refresh failures; when nil they
	// fall through to the stream-wide WithSubscriptionErrorHandler hook.
	onError func(error)
	nextAt  int64 // stream time of the next refresh
	// changedOnly suppresses refreshes whose result set is identical to
	// the previous one.
	changedOnly bool
	lastIDs     []int64 // nil until the first delivery
	failures    atomic.Int64
	// gone is set by Unsubscribe so an in-flight fireSubscriptions sweep
	// (which iterates a snapshot of the registration list) skips a
	// subscription removed re-entrantly by another handler.
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

// OnError installs a per-subscription error hook. A refresh that fails
// reports here (or, without this option, to the stream's
// WithSubscriptionErrorHandler hook) and is dropped; ingestion continues
// and the other subscriptions still fire.
func OnError(h func(error)) SubscribeOption {
	return func(s *Subscription) { s.onError = h }
}

// Subscribe registers a standing query re-evaluated every `every` of stream
// time, starting at the next bucket boundary. The handler runs synchronously
// inside Add/Flush (keep it fast; hand off to a channel for slow consumers).
//
// The context bounds the subscription's lifetime: once ctx is done the
// subscription stops firing and is removed at the next bucket boundary (a
// nil ctx means "until Unsubscribe"). Each delivered Result carries the
// bucket sequence it was computed at in Result.Bucket.
//
// A refresh that fails does not abort the Add/Flush that triggered it: the
// error is reported through the OnError hook (falling back to the stream's
// WithSubscriptionErrorHandler) and counted in Failures.
//
// Subscribe and Unsubscribe are writer-side operations: call them from the
// ingest goroutine, or go through a Hub handle, which serializes them with
// Add/Flush.
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
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadSubscription)
	}
	s.subSeq++
	sub := &Subscription{
		id:      s.subSeq,
		ctx:     ctx,
		query:   q,
		every:   every,
		handler: handler,
		nextAt:  int64(s.me.Load().engine.Now()) + int64(every/time.Second),
	}
	for _, opt := range opts {
		opt(sub)
	}
	s.subs = append(s.subs, sub)
	s.nsubs.Store(int64(len(s.subs)))
	return sub, nil
}

// Unsubscribe removes a standing query. It is a no-op for an unknown or
// already-removed subscription. Like Subscribe it is a writer-side
// operation, and it is safe to call from inside a subscription handler
// (e.g. a one-shot query unsubscribing itself).
func (s *Stream) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	for i, cur := range s.subs {
		if cur.id == sub.id {
			cur.gone.Store(true)
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			s.nsubs.Store(int64(len(s.subs)))
			return
		}
	}
}

// Subscriptions returns the number of standing queries. Safe to call
// concurrently with ingestion.
func (s *Stream) Subscriptions() int { return int(s.nsubs.Load()) }

// fireSubscriptions runs every due standing query after the window advanced
// to stream time now. Subscriber failures are isolated: a refresh that
// errors is reported to its hook and skipped, never aborting the ingest
// that triggered it or starving the remaining subscriptions. Subscriptions
// whose context is done are dropped.
//
// The sweep iterates a snapshot of the registration list, so handlers may
// re-entrantly Subscribe (the new subscription starts firing next bucket)
// or Unsubscribe (the gone flag keeps this sweep from firing it).
func (s *Stream) fireSubscriptions(now int64) {
	if len(s.subs) == 0 {
		return
	}
	subs := append([]*Subscription(nil), s.subs...)
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
		res, err := s.Query(sub.ctx, sub.query)
		if err != nil {
			// A context cancelled mid-refresh is a normal shutdown (e.g.
			// an SSE client disconnecting), not a refresh failure: drop
			// the subscription like the expired path, without counting.
			if sub.ctx.Err() != nil {
				expired = append(expired, sub)
				continue
			}
			sub.failures.Add(1)
			s.reportSubError(sub, err)
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
		s.Unsubscribe(sub)
	}
}

// reportSubError routes one refresh failure to the most specific hook.
func (s *Stream) reportSubError(sub *Subscription, err error) {
	err = fmt.Errorf("ksir: subscription %d: %w", sub.id, err)
	switch {
	case sub.onError != nil:
		sub.onError(err)
	case s.cfg.onSubError != nil:
		s.cfg.onSubError(sub, err)
	}
}

func resultIDs(res Result) []int64 {
	ids := make([]int64, len(res.Posts))
	for i, p := range res.Posts {
		ids[i] = p.ID
	}
	return ids
}
