package core

import (
	"context"

	"github.com/social-streams/ksir/internal/stream"
)

// mttd implements Algorithm 3 (Multi-Topic ThresholdDescend) against one
// immutable snapshot view.
//
// It keeps a single candidate S and a buffer E′ of retrieved elements keyed
// by lazily cached marginal gains. Evaluation proceeds in rounds with
// geometrically descending thresholds τ; in each round, the retrieve step
// pulls every element whose ranked-list upper bound reaches τ, then the
// buffer is drained CELF-style: the max cached gain is recomputed and the
// element admitted if its true gain still reaches τ. The loop stops when S
// is full or τ descends below τ′ = f(S,x)·ε/k. Theorem 4.4: the result is
// (1 − 1/e − ε)-approximate.
//
// Cancellation is polled between threshold descents (once per τ round): a
// canceled ctx aborts with ctx.Err() before the next retrieve/evaluate pass.
func (v *view) mttd(ctx context.Context, q Query, a *arena) (Result, error) {
	tr := &a.tr
	tr.start(v, q.X)
	eps := q.Epsilon
	k := q.K

	s := a.newSet(v.scorer, q.X)
	buf := &a.heap
	evaluated, gainEvals := 0, 0

	tau := tr.ub() // τ starts at the global upper bound (line 3)
	tauEnd := 0.0
	for tau >= tauEnd && tau > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// retrieve(τ): pull elements whose upper bound reaches τ (lines
		// 13–19). Their cached key is the exact singleton score δ(e, x),
		// an upper bound on any future marginal gain; the probe it came
		// from stays with the entry for the re-evaluations.
		for tr.ub() >= tau {
			e, ok := tr.pop()
			if !ok {
				break
			}
			p := v.scorer.Prepare(&a.buf, e, q.X)
			evaluated++
			buf.push(gainEntry{gain: p.Delta, id: e.ID, probe: int32(len(a.probes))})
			a.probes = append(a.probes, p)
		}

		// Evaluation round (lines 6–10): lazy-greedy drain at threshold τ.
		for len(*buf) > 0 && (*buf)[0].gain >= tau {
			top := buf.pop()
			if s.Contains(top.id) {
				continue
			}
			p := &a.probes[top.probe]
			gain := s.Gain(p)
			gainEvals++
			if gain >= tau {
				s.AddProbe(p)
				if s.Len() == k {
					return a.result(v, s, evaluated, gainEvals), nil
				}
			} else if gain > 0 {
				top.gain = gain
				buf.push(top)
			}
		}

		// Descend (line 11). τ′ > 0 once anything scored, guaranteeing
		// termination; if nothing has positive score the buffer is empty
		// and the traversal exhausted, so we stop explicitly.
		tauEnd = s.Value() * eps / float64(k)
		tau *= 1 - eps
		if len(*buf) == 0 && tr.exhausted() {
			break
		}
	}
	return a.result(v, s, evaluated, gainEvals), nil
}

// gainEntry is one buffered element with its lazily cached marginal gain
// and the index of its probe in the arena.
type gainEntry struct {
	gain  float64
	id    stream.ElemID
	probe int32
}

// before orders the heap: larger cached gain first, ties broken by ID for
// determinism.
func (e gainEntry) before(o gainEntry) bool {
	if e.gain != o.gain {
		return e.gain > o.gain
	}
	return e.id < o.id
}

// gainHeap is a binary max-heap of gainEntry, typed so pushes and pops do
// not box their operand.
type gainHeap []gainEntry

func (h *gainHeap) push(e gainEntry) {
	s := append(*h, e)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *gainHeap) pop() gainEntry {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}
