// Package residency is the hub's hot-tier policy as plain values (DESIGN.md
// §11, §15): who may stay resident under a budget, which recently evicted
// names deserve a protected re-admission, and when a hibernated stream is
// due back. Like connector/backoff it holds no goroutine, no lock and no
// clock — times are int64 nanoseconds the caller passes in — so every
// decision is a deterministic function of its inputs that tests enumerate
// instead of scheduling. The hub keeps the mechanism: the per-handle
// atomics these values are snapshotted from, the queues, and every
// hibernate and activate call.
package residency

import (
	"container/list"
	"sort"
)

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
	// SecondChance is the clock bit: touched again since admission.
	SecondChance bool
	// Prefetched marks a prefetch activation still queued or not yet
	// consumed by the demand it anticipated; such a stream is never a
	// victim.
	Prefetched bool
}

// Mode selects what a walk is deciding for.
type Mode struct {
	incoming int
	ceiling  int64
	demote   bool
}

// Admit is the walk on behalf of one stream about to activate: it counts
// against the budget too, a positive ceiling restricts victims to streams
// touched strictly before it (a prefetch never displaces anything warmer
// than what it admits), and protection is never stripped — a burst of
// one-shot admissions churns through its own probationary streams.
func Admit(ceiling int64) Mode { return Mode{incoming: 1, ceiling: ceiling} }

// Sweep is the walk that makes the budget hold: when the unprotected
// candidates do not suffice, the clock hand has come full circle and
// second-chance streams go too, coldest first.
func Sweep() Mode { return Mode{demote: true} }

// Plan is what one walk decided. Victims and Saves index the candidate
// slice.
type Plan struct {
	// Full says the candidates (plus the incoming stream) exceeded the
	// budget before anything went.
	Full bool
	// Victims are the streams to hibernate, in the order chosen.
	Victims []int
	// Saves are the protected candidates the first pass skipped.
	Saves []int
	// Demoted says the protected set alone overflowed the budget: every
	// survivor's second-chance bit is spent and must be re-earned.
	Demoted bool
}

// Mechanism is how a walk acts on the hot tier while it decides. Both
// hooks are optional; with neither, Walk is the pure decision, which is
// all a re-check needs.
type Mechanism struct {
	// Evict is called once per chosen victim and reports whether the
	// stream really went (or is on its way). A refused victim stays
	// counted and the walk moves on to the next-coldest. Nil accepts every
	// victim.
	Evict func(i int) bool
	// Demote is called when a sweep finds the protected set alone over
	// budget, before the first second-chance victim goes, so that a touch
	// landing while those victims are hibernated re-earns its bit instead
	// of being wiped after them.
	Demote func()
}

// Walk visits cands coldest first and picks victims until the budget
// holds. The first pass skips protected candidates — second-chance or
// prefetched — recording a save for each; only a Sweep that is still over
// budget afterwards takes a second pass through the second-chance ones.
// An in-flight prefetch is spared by both.
func (b Budget) Walk(cands []Candidate, m Mode, mech Mechanism) Plan {
	n, bytes := len(cands)+m.incoming, int64(0)
	for _, c := range cands {
		bytes += c.Bytes
	}
	over := func() bool {
		return (b.MaxStreams > 0 && n > b.MaxStreams) || (b.MaxBytes > 0 && bytes > b.MaxBytes)
	}
	if !over() {
		return Plan{}
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return cands[order[x]].Touch < cands[order[y]].Touch })
	p := Plan{Full: true}
	pass := func(protected bool) {
		for _, i := range order {
			c := cands[i]
			if !over() || (m.ceiling > 0 && c.Touch >= m.ceiling) {
				return // sorted coldest-first: only warmer candidates remain
			}
			if c.Prefetched || c.SecondChance != protected {
				if !protected {
					p.Saves = append(p.Saves, i)
				}
				continue
			}
			if mech.Evict == nil || mech.Evict(i) {
				p.Victims = append(p.Victims, i)
				n--
				bytes -= c.Bytes
			}
		}
	}
	pass(false)
	if m.demote && over() {
		p.Demoted = true
		if mech.Demote != nil {
			mech.Demote()
		}
		pass(true)
	}
	return p
}

// Ghosts is the bounded list of recently hibernated stream names. A
// reactivation that finds its name here was evicted too eagerly: it takes
// the entry and re-admits protected. Record and Take are O(1); past the
// bound the oldest hibernation ages out.
type Ghosts struct {
	limit  int
	byName map[string]*list.Element
	order  *list.List // names, oldest hibernation first
}

// NewGhosts returns an empty list bounded at max(32, 2×b.MaxStreams).
func NewGhosts(b Budget) *Ghosts {
	return &Ghosts{limit: max(32, 2*b.MaxStreams), byName: make(map[string]*list.Element), order: list.New()}
}

// Record notes that name was just hibernated, making it the newest entry.
func (g *Ghosts) Record(name string) {
	if e, ok := g.byName[name]; ok {
		g.order.MoveToBack(e)
		return
	}
	g.byName[name] = g.order.PushBack(name)
	if g.order.Len() > g.limit {
		delete(g.byName, g.order.Remove(g.order.Front()).(string))
	}
}

// Take consumes name's entry, reporting whether there was one.
func (g *Ghosts) Take(name string) bool {
	e, ok := g.byName[name]
	if ok {
		g.order.Remove(e)
		delete(g.byName, name)
	}
	return ok
}

// Len returns the number of names on the list.
func (g *Ghosts) Len() int { return g.order.Len() }

const (
	// MinTouchGap is the smallest inter-touch gap (ns) folded into the
	// recurrence estimate: sub-millisecond gaps are one logical burst (a
	// query fan-out, a batch of adds), not a period worth predicting.
	MinTouchGap = int64(1e6)
	// HintTTL is how long (ns) a standing hint keeps a hibernated stream
	// prefetch-eligible.
	HintTTL = int64(30e9)
)

// FoldGap returns the touch-gap EWMA (α=¼) after observing gap; a gap
// below MinTouchGap leaves it unchanged and the first one seeds it.
func FoldGap(ewma, gap int64) int64 {
	switch {
	case gap < MinTouchGap:
		return ewma
	case ewma == 0:
		return gap
	}
	return ewma + (gap-ewma)/4
}

// Recurrence is what predicts a hibernated stream's next touch.
type Recurrence struct {
	// LastTouch is the stream's last-touch clock.
	LastTouch int64
	// GapEWMA is its FoldGap estimate; 0 means no recurrence evidence.
	GapEWMA int64
	// HintUntil is the expiry of a standing hint; 0 means none.
	HintUntil int64
}

// Due reports whether the stream should be prefetched at now: a standing
// hint is live, or the predicted next touch (LastTouch + GapEWMA) lies
// within ±look of now. A prediction more than look stale means the
// recurrence broke — nothing is due until the pattern re-establishes.
func (r Recurrence) Due(now, look int64) bool {
	if r.HintUntil > 0 && now <= r.HintUntil {
		return true
	}
	if r.GapEWMA <= 0 {
		return false
	}
	next := r.LastTouch + r.GapEWMA
	return next-look <= now && now <= next+look
}
