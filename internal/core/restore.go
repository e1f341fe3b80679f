package core

import (
	"fmt"
	"slices"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
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
	Lists [][]rankedlist.Item
	Stats Stats
}

// ExportState dumps the last published state. Like a query it pins the
// snapshot, so it is safe to run concurrently with readers; the caller
// must serialize it against Ingest (the Hub's writer pipeline does — a
// checkpoint op is a commit barrier).
func (g *Engine) ExportState() State {
	snap := g.acquire()
	defer snap.release()
	st := State{
		Window: snap.buf.win.Export(),
		Lists:  make([][]rankedlist.Item, len(snap.buf.frozen)),
		Stats:  snap.stats,
	}
	for i, l := range snap.buf.frozen {
		if l.Len() > 0 {
			st.Lists[i] = l.Items()
		}
	}
	return st
}

// Restore builds an engine whose published state is exactly st: the same
// window, the same ranked-list tuples (stale scores included), the same
// counters and bucket sequence. Queries against the restored engine return
// byte-identical results to the engine st was exported from, and
// subsequent Ingests continue deterministically.
//
// Both buffers are built before Restore returns: the back buffer's window
// is a replica of the front's, sharing its writer state (the archive and
// its index are built once), and its scorer adopts the front scorer's
// cache entries, so it is byte-identical to the front.
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
	front, err := restoreBuffer(cfg, win, st.Lists, nil)
	if err != nil {
		return nil, err
	}
	// The twin windows advance in lockstep (primary apply on one, delta
	// replay on the other), so the writer-path-only structures — archive,
	// ID index, last-ref times, expiry heap — exist once and replay skips
	// maintaining them.
	back, err := restoreBuffer(cfg, win.Replica(), st.Lists, front.scorer)
	if err != nil {
		return nil, err
	}
	g := &Engine{cfg: cfg, back: back, stats: st.Stats}
	front.freeze()
	g.front.Store(newSnapshot(front, g.stats, g.listBusy))
	return g, nil
}

// restoreBuffer builds one buffer copy over a restored window: warm the
// scorer cache for every active element (queries read the cache without
// locking, so it must be complete before publication), and re-insert the
// ranked-list tuples. A non-nil warmFrom supplies an already-warmed scorer
// over the same state whose immutable cache entries are adopted by pointer
// instead of recomputed.
func restoreBuffer(cfg Config, win *stream.ActiveWindow, tuples [][]rankedlist.Item, warmFrom *score.Scorer) (*buffer, error) {
	scorer, err := score.NewScorer(cfg.Model, win, cfg.Params)
	if err != nil {
		return nil, err
	}
	if warmFrom != nil {
		scorer.AdoptCache(warmFrom)
	} else {
		var warm stream.ChangeSet
		win.ForEachActiveSlot(func(e *stream.Element, s stream.Slot) {
			warm.Inserted = append(warm.Inserted, e)
			warm.InsertedSlots = append(warm.InsertedSlots, s)
		})
		scorer.OnChange(warm)
	}

	tab := rankedlist.NewTable()
	lists := make([]*rankedlist.List, cfg.Model.Z)
	for i := range lists {
		lists[i] = tab.New()
	}
	for topic, items := range tuples {
		for _, it := range items {
			s, active := win.SlotOf(it.ID)
			if !active {
				return nil, fmt.Errorf("core: ranked list %d holds inactive element %d", topic, it.ID)
			}
			j := slices.Index(win.At(s).Topics.Topics, int32(topic))
			if j < 0 {
				return nil, fmt.Errorf("core: ranked list %d holds element %d, which lacks the topic", topic, it.ID)
			}
			lists[topic].UpsertAt(s, j, it.ID, it.Score, it.LastRef)
		}
	}
	return &buffer{win: win, scorer: scorer, lists: lists}, nil
}
