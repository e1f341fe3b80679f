package core

import (
	"fmt"
	"slices"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// State is the serializable form of an Engine at a published bucket
// boundary: the window dump, the per-topic ranked-list tuples, and the
// maintenance counters. It is what checkpoints store (internal/persist)
// and what Restore rebuilds.
//
// The list tuples are serialized rather than recomputed on restore
// because Algorithm 1 only repositions an element when it is inserted or
// gains a reference — a parent whose child merely left the window keeps
// its stale δ_i until then. That staleness is part of the engine's
// observable state (it steers query traversal order), so an exact restore
// must reproduce it; the skip lists themselves are insertion-order
// independent (ordering by ⟨score, ID⟩, levels derived from the ID), so
// re-inserting the tuples rebuilds byte-identical traversals.
type State struct {
	Window stream.WindowState
	// Lists[i] holds RL_i's tuples in ranked order.
	Lists [][]Tuple
	Stats Stats
}

// Tuple is a ranked-list tuple as a state holds it: Algorithm 1's
// ⟨δ_i(e), t_e⟩ and the element's ID. The lists themselves keep no t_e
// (rankedlist.Item); ExportState copies it from the window, and Restore
// requires it to equal the element's active entry.
type Tuple struct {
	ID      stream.ElemID
	Score   float64     // δ_i(e) as the list holds it, stale or not
	LastRef stream.Time // t_e, the time the element was last referred to
}

// ExportState dumps the last published state. It takes the writer lock:
// the window's export walks its ID map and archive, which only the writer
// reads (the Hub's writer pipeline already serializes it against Ingest —
// a checkpoint op is a commit barrier). Under the lock the window is the
// published bucket's, so a tuple's t_e is the window's entry for the
// slot of its node.
func (g *Engine) ExportState() State {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := g.front.Load()
	st := State{
		Window: g.win.Export(),
		Lists:  make([][]Tuple, len(snap.lists)),
		Stats:  snap.stats,
	}
	for i, l := range snap.lists {
		n := snap.lens[i]
		if n == 0 {
			continue
		}
		tuples := make([]Tuple, 0, n)
		for it := l.IterAt(snap.seq); ; {
			item, ok := it.Next()
			if !ok {
				break
			}
			tuples = append(tuples, Tuple{ID: item.ID, Score: item.Score, LastRef: g.win.LastRefAt(it.Slot())})
		}
		st.Lists[i] = tuples
	}
	return st
}

// Restore builds an engine whose published state is exactly st: the same
// window, the same ranked-list tuples (stale scores included), the same
// counters and bucket sequence. Queries against the restored engine return
// byte-identical results to the engine st was exported from, and
// subsequent Ingests continue deterministically. The window, its scorer
// cache and the lists are each built once, the lists as the published
// version st.Stats.Buckets.
//
// A state whose active or window-queue elements do not fit the model (a
// topic outside [0, Z), a word outside the vocabulary) is an error, not a
// panic in the scorer; so is, when a later bucket resurrects it, such an
// archived element (stream.ErrArchiveRead). So are lists that do not
// match the window: a tuple of an element that is not active or lacks the
// list's topic, a tuple listed twice, a t_e other than the element's
// active entry, and an active element without a tuple in one of its
// topics' lists.
func Restore(cfg Config, st State) (*Engine, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: config needs a topic model")
	}
	if cfg.WindowLength <= 0 {
		return nil, fmt.Errorf("core: window length must be positive, got %d", cfg.WindowLength)
	}
	if len(st.Lists) != cfg.Model.Z {
		return nil, fmt.Errorf("core: state has %d ranked lists for a %d-topic model", len(st.Lists), cfg.Model.Z)
	}
	win, err := stream.Restore(cfg.WindowLength, st.Window)
	if err != nil {
		return nil, err
	}
	win.Check = func(e *stream.Element) error { return fits(cfg.Model, e) }
	for _, e := range st.Window.Window {
		if err := fits(cfg.Model, e); err != nil {
			return nil, err
		}
	}
	var warm stream.ChangeSet
	cells := 0 // the tuples the lists must hold: one per topic of each active element
	win.ForEachActiveSlot(func(e *stream.Element, s stream.Slot) {
		if err == nil {
			err = fits(cfg.Model, e)
		}
		warm.Inserted = append(warm.Inserted, e)
		warm.InsertedSlots = append(warm.InsertedSlots, s)
		cells += len(e.Topics.Topics)
	})
	if err != nil {
		return nil, err
	}
	scorer, err := score.NewScorer(cfg.Model, win, cfg.Params)
	if err != nil {
		return nil, err
	}
	// Queries read the scorer cache without locking, so it is complete
	// before publication.
	scorer.OnChange(warm)

	g := &Engine{cfg: cfg, win: win, scorer: scorer, stats: st.Stats, tab: rankedlist.NewTable(st.Stats.Buckets)}
	g.lists = make([]*rankedlist.List, cfg.Model.Z)
	for i := range g.lists {
		g.lists[i] = g.tab.New()
	}
	if err := g.restoreLists(st.Lists, cells); err != nil {
		return nil, err
	}
	g.front.Store(g.newSnapshot())
	return g, nil
}

// restoreLists re-inserts the ranked-list tuples, each for an active
// element of the window that has the list's topic, at most once per list,
// with the element's t_e; cells is how many the lists must end up holding,
// one per topic of each active element, so none is missing.
func (g *Engine) restoreLists(tuples [][]Tuple, cells int) error {
	win := g.win
	n := 0
	for topic, items := range tuples {
		l := g.lists[topic]
		for _, it := range items {
			s, active := win.SlotOf(it.ID)
			if !active {
				return fmt.Errorf("core: ranked list %d holds inactive element %d", topic, it.ID)
			}
			j := slices.Index(win.At(s).Topics.Topics, int32(topic))
			if j < 0 {
				return fmt.Errorf("core: ranked list %d holds element %d, which lacks the topic", topic, it.ID)
			}
			if _, dup := l.GetAt(s, j); dup {
				return fmt.Errorf("core: ranked list %d holds element %d twice", topic, it.ID)
			}
			if te := win.LastRefAt(s); it.LastRef != te {
				return fmt.Errorf("core: ranked list %d holds element %d at t_e %d, the window at %d", topic, it.ID, it.LastRef, te)
			}
			l.UpsertAt(s, j, it.ID, it.Score)
		}
		n += len(items)
	}
	if n != cells {
		return fmt.Errorf("core: ranked lists hold %d tuples for the %d topics of the active elements", n, cells)
	}
	return nil
}

// fits rejects an element that does not fit the model: topics that are not
// strictly increasing in [0, Z) with a probability each, or a word outside
// the vocabulary. Scoring such an element would index past the model's
// tables, and a repeated topic would put two tuples of it in one list.
func fits(m *topicmodel.Model, e *stream.Element) error {
	tv := e.Topics
	if len(tv.Probs) != len(tv.Topics) {
		return fmt.Errorf("core: element %d has %d topics for %d probabilities", e.ID, len(tv.Topics), len(tv.Probs))
	}
	for i, z := range tv.Topics {
		if z < 0 || int(z) >= m.Z || i > 0 && z <= tv.Topics[i-1] {
			return fmt.Errorf("core: element %d has topics %v, not increasing in [0, %d)", e.ID, tv.Topics, m.Z)
		}
	}
	for _, t := range e.Doc.Terms {
		if t.Word < 0 || int(t.Word) >= m.V {
			return fmt.Errorf("core: element %d has word %d outside a vocabulary of %d", e.ID, t.Word, m.V)
		}
	}
	return nil
}
