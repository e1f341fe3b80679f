package core

import (
	"math"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/stream"
)

// Traversal over the paper's ranked lists (Figure 5 state) must pop
// elements in decreasing order of x_i·δ_i and never repeat one.
func TestTraversalOrderAndDedup(t *testing.T) {
	g := paperEngine(t)
	tr := newTraversal(g, papertest.QueryUniform())

	var seen []stream.ElemID
	var lastKey float64 = math.Inf(1)
	dedup := make(map[stream.ElemID]bool)
	for {
		// Record the key of the head we are about to pop.
		key := headKey(tr)
		e, _, ok := tr.pop()
		if !ok {
			break
		}
		if dedup[e.ID] {
			t.Fatalf("element e%d popped twice", e.ID)
		}
		dedup[e.ID] = true
		if key > lastKey+1e-12 {
			t.Fatalf("pop keys not non-increasing: %v after %v (e%d)", key, lastKey, e.ID)
		}
		lastKey = key
		seen = append(seen, e.ID)
	}
	if len(seen) != 7 {
		t.Fatalf("popped %d elements, want all 7 actives: %v", len(seen), seen)
	}
	// First pop is e3 (x1·δ1(e3) = 0.33 beats x2·δ2(e1) = 0.28), matching
	// Example 4.1's walkthrough.
	if seen[0] != 3 {
		t.Errorf("first pop = e%d, want e3", seen[0])
	}
	if !tr.exhausted() {
		t.Error("traversal should be exhausted")
	}
	if got := tr.ub(); got != 0 {
		t.Errorf("UB after exhaustion = %v", got)
	}
}

// headKey returns max_i x_i·δ_i(e^(i)) without mutating the traversal.
func headKey(tr *traversal) float64 {
	tr.skipVisited()
	best := math.Inf(-1)
	for i := range tr.cur {
		if tr.has[i] {
			if v := tr.weights[i] * tr.cur[i].Score; v > best {
				best = v
			}
		}
	}
	return best
}

// UB must be a true upper bound on δ(e, x) of every unpopped element at
// every step (the property Theorem 4.2's pruning correctness rests on).
func TestTraversalUpperBoundInvariant(t *testing.T) {
	g := paperEngine(t)
	x := papertest.QuerySkewed()
	tr := newTraversal(g, x)
	popped := make(map[stream.ElemID]bool)
	for {
		ub := tr.ub()
		// Check every unpopped active element against the current UB.
		g.Window().ForEachActive(func(e *stream.Element) {
			if popped[e.ID] {
				return
			}
			if d := g.Scorer().Score(e, x); d > ub+1e-9 {
				t.Errorf("UB %v < δ(e%d)=%v", ub, e.ID, d)
			}
		})
		e, _, ok := tr.pop()
		if !ok {
			break
		}
		popped[e.ID] = true
	}
}

// Zero-weight query topics must not open cursors.
func TestTraversalSkipsZeroWeightTopics(t *testing.T) {
	g := paperEngine(t)
	x := papertest.QueryUniform()
	x.Probs = []float64{0, 1} // zero out θ1
	tr := newTraversal(g, x)
	if len(tr.iters) != 1 {
		t.Fatalf("opened %d cursors, want 1", len(tr.iters))
	}
	// Only elements with p_2 > 0 are reachable — that is all 7 here, but
	// they must come out in RL2 order.
	first, _, ok := tr.pop()
	if !ok || first.ID != 1 {
		t.Errorf("first pop = %v, want e1 (RL2 head)", first)
	}
}

func TestTraversalOnEmptyEngine(t *testing.T) {
	g, err := NewEngine(Config{
		Model:        papertest.Model(),
		WindowLength: 4,
		Params:       score.Params{Lambda: 0.5, Eta: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTraversal(g, papertest.QueryUniform())
	if !tr.exhausted() {
		t.Error("empty traversal not exhausted")
	}
	if _, _, ok := tr.pop(); ok {
		t.Error("pop on empty succeeded")
	}
	if tr.ub() != 0 {
		t.Error("UB on empty != 0")
	}
}
