package residency

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// c builds a candidate; flags "s" sets the second-chance bit.
func c(touch, bytes int64, flags string) Candidate {
	return Candidate{Touch: touch, Bytes: bytes, SecondChance: flags == "s"}
}

// Every branch the hub's three call sites used to carry on their own:
// EnforceResidency (Sweep), makeRoom (Admit) and the stale-eviction
// re-check (Admit().Full).
func TestWalkTable(t *testing.T) {
	n2 := Budget{MaxStreams: 2}
	for _, tc := range []struct {
		name   string
		b      Budget
		cands  []Candidate
		mode   Mode
		refuse []int // victims the mechanism turns down
		want   Plan
	}{
		{name: "no budget, sweep", cands: []Candidate{c(1, 9, ""), c(2, 9, "")}, mode: Sweep()},
		{name: "no budget, admit", cands: []Candidate{c(1, 9, ""), c(2, 9, "")}, mode: Admit()},
		{name: "no candidates", b: n2, mode: Sweep()},

		{name: "sweep under budget", b: n2, cands: []Candidate{c(1, 1, ""), c(2, 1, "")}, mode: Sweep()},
		{name: "sweep evicts coldest until the count fits", b: n2,
			cands: []Candidate{c(40, 1, ""), c(10, 1, ""), c(30, 1, ""), c(20, 1, "")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{1, 3}}},
		{name: "sweep evicts coldest until the bytes fit", b: Budget{MaxBytes: 10},
			cands: []Candidate{c(3, 6, ""), c(1, 2, ""), c(2, 5, "")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{1, 2}}},
		{name: "sweep: either bound suffices to be over", b: Budget{MaxStreams: 5, MaxBytes: 4},
			cands: []Candidate{c(1, 3, ""), c(2, 3, "")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{0}}},
		{name: "sweep skips protected while unprotected suffice", b: n2,
			cands: []Candidate{c(1, 1, "s"), c(2, 1, "s"), c(3, 1, ""), c(4, 1, ""), c(5, 1, "")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{2, 3, 4}, Saves: []int{0, 1}}},
		{name: "sweep stops saving once the budget holds", b: n2,
			cands: []Candidate{c(1, 1, ""), c(2, 1, "s"), c(3, 1, "s")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{0}}},
		{name: "sweep demotes when the protected set alone overflows", b: n2,
			cands: []Candidate{c(3, 1, "s"), c(1, 1, "s"), c(2, 1, "s"), c(4, 1, "s")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{1, 2}, Saves: []int{1, 2, 0, 3}, Demoted: true}},
		{name: "sweep takes unprotected first, then second-chance", b: Budget{MaxStreams: 1},
			cands: []Candidate{c(1, 1, "s"), c(2, 1, ""), c(3, 1, "s")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{1, 0}, Saves: []int{0, 2}, Demoted: true}},
		{name: "sweep moves on past a refused victim", b: n2,
			cands: []Candidate{c(1, 1, ""), c(2, 1, ""), c(3, 1, "")}, mode: Sweep(), refuse: []int{0},
			want: Plan{Full: true, Victims: []int{1}}},
		{name: "sweep: equal touches go in snapshot order", b: Budget{MaxStreams: 1},
			cands: []Candidate{c(7, 1, ""), c(7, 1, ""), c(7, 1, "")}, mode: Sweep(),
			want: Plan{Full: true, Victims: []int{0, 1}}},

		{name: "admit with room for one more", b: n2, cands: []Candidate{c(1, 1, "")}, mode: Admit()},
		{name: "admit at the cap evicts the coldest", b: n2,
			cands: []Candidate{c(2, 1, ""), c(1, 1, "")}, mode: Admit(),
			want: Plan{Full: true, Victims: []int{1}}},
		{name: "admit over the cap evicts one per missing slot", b: n2,
			cands: []Candidate{c(3, 1, ""), c(1, 1, ""), c(2, 1, "")}, mode: Admit(),
			want: Plan{Full: true, Victims: []int{1, 2}}},
		{name: "admit over bytes", b: Budget{MaxBytes: 4},
			cands: []Candidate{c(1, 3, ""), c(2, 3, "")}, mode: Admit(),
			want: Plan{Full: true, Victims: []int{0}}},
		{name: "admit never demotes", b: n2,
			cands: []Candidate{c(1, 1, "s"), c(2, 1, "s")}, mode: Admit(),
			want: Plan{Full: true, Saves: []int{0, 1}}},
		{name: "admit skips the protected for the coldest probationary", b: Budget{MaxStreams: 3},
			cands: []Candidate{c(1, 1, "s"), c(3, 1, ""), c(2, 1, "")}, mode: Admit(),
			want: Plan{Full: true, Victims: []int{2}, Saves: []int{0}}},
		{name: "admit moves on past a refused victim", b: n2,
			cands: []Candidate{c(1, 1, ""), c(2, 1, "")}, mode: Admit(), refuse: []int{0},
			want: Plan{Full: true, Victims: []int{1}}},

		{name: "stale eviction: below the cap again", b: Budget{MaxStreams: 3},
			cands: []Candidate{c(1, 1, ""), c(2, 1, "")}, mode: Admit()},
		{name: "stale eviction: still at the cap", b: Budget{MaxStreams: 3},
			cands: []Candidate{c(1, 1, "s"), c(2, 1, "s"), c(3, 1, "s")}, mode: Admit(),
			want: Plan{Full: true, Saves: []int{0, 1, 2}}},
		{name: "stale eviction: bytes still over", b: Budget{MaxStreams: 9, MaxBytes: 4},
			cands: []Candidate{c(1, 5, "s")}, mode: Admit(),
			want: Plan{Full: true, Saves: []int{0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The mechanism's trace: victims in the order they went, with
			// the demotion (-1) where it fell among them.
			var trace, wantTrace []int
			mech := Mechanism{
				Evict: func(i int) bool {
					trace = append(trace, i)
					return !slices.Contains(tc.refuse, i)
				},
				Demote: func() { trace = append(trace, -1) },
			}
			got := tc.b.Walk(tc.cands, tc.mode, mech)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Walk = %+v, want %+v", got, tc.want)
			}
			if tc.refuse != nil {
				return
			}
			checkPlan(t, tc.b, tc.cands, tc.mode, got)
			// Demotion comes before the first second-chance victim goes.
			for _, i := range got.Victims {
				if tc.cands[i].SecondChance && !slices.Contains(wantTrace, -1) {
					wantTrace = append(wantTrace, -1)
				}
				wantTrace = append(wantTrace, i)
			}
			if got.Demoted && !slices.Contains(wantTrace, -1) {
				wantTrace = append(wantTrace, -1) // nothing left to take after it
			}
			if !slices.Equal(trace, wantTrace) {
				t.Errorf("mechanism saw %v, want %v", trace, wantTrace)
			}
			if pure := tc.b.Walk(tc.cands, tc.mode, Mechanism{}); !reflect.DeepEqual(pure, got) {
				t.Errorf("pure decision %+v differs from the executed one %+v", pure, got)
			}
		})
	}
}

// checkPlan holds a plan decided with no refusals to the policy's
// invariants, each stated independently of how Walk computes it.
func checkPlan(t *testing.T, b Budget, cands []Candidate, m Mode, p Plan) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("budget %+v mode %+v cands %+v plan %+v: %s", b, m, cands, p, fmt.Sprintf(format, args...))
	}
	over := func(n int, bytes int64) bool {
		return (b.MaxStreams > 0 && n > b.MaxStreams) || (b.MaxBytes > 0 && bytes > b.MaxBytes)
	}
	n, bytes := len(cands)+m.incoming, int64(0)
	for _, cd := range cands {
		bytes += cd.Bytes
	}

	if p.Full != over(n, bytes) {
		fail("Full = %v with %d streams / %d bytes counted", p.Full, n, bytes)
	}
	if !b.Enabled() && (p.Full || len(p.Victims)+len(p.Saves) > 0 || p.Demoted) {
		fail("no budget must decide nothing")
	}
	if !p.Full && (len(p.Victims)+len(p.Saves) > 0 || p.Demoted) {
		fail("a tier with room must lose nothing")
	}
	if p.Demoted && !m.demote {
		fail("only a sweep demotes")
	}

	// Victims: distinct, the unprotected ones first and each group
	// coldest-first.
	victim := make(map[int]bool)
	for k, i := range p.Victims {
		cd := cands[i]
		switch {
		case victim[i]:
			fail("victim %d chosen twice", i)
		case cd.SecondChance && !p.Demoted:
			fail("second-chance victim %d without a full-circle sweep", i)
		}
		victim[i] = true
		if k > 0 {
			prev := cands[p.Victims[k-1]]
			if prev.SecondChance && !cd.SecondChance {
				fail("unprotected victim %d after a second-chance one", i)
			}
			if prev.SecondChance == cd.SecondChance && prev.Touch > cd.Touch {
				fail("victims %d, %d not coldest-first", p.Victims[k-1], i)
			}
		}
	}
	for i, cd := range cands {
		if victim[i] || (cd.SecondChance && !p.Demoted) {
			continue
		}
		for v := range victim {
			if cands[v].SecondChance == cd.SecondChance && cands[v].Touch > cd.Touch {
				fail("victim %d is warmer than survivor %d of the same standing", v, i)
			}
		}
	}

	// The walk stops the moment the budget holds: without its last victim
	// the plan would still be over, and it ends over budget only when
	// nothing eligible is left.
	vn, vbytes := n, bytes
	for k, i := range p.Victims {
		if !over(vn, vbytes) {
			fail("victim %d (#%d) chosen after the budget already held", i, k)
		}
		vn--
		vbytes -= cands[i].Bytes
	}
	if over(vn, vbytes) {
		for i, cd := range cands {
			if !victim[i] && (m.demote || !cd.SecondChance) {
				fail("still over budget with eligible candidate %d left resident", i)
			}
		}
	}

	// Demotion only when every unprotected candidate going was not enough.
	un, ubytes := n, bytes
	for _, cd := range cands {
		if !cd.SecondChance {
			un--
			ubytes -= cd.Bytes
		}
	}
	if p.Demoted != (m.demote && over(un, ubytes)) {
		fail("Demoted = %v, unprotected candidates going leaves %d streams / %d bytes", p.Demoted, un, ubytes)
	}

	// Saves: exactly the protected candidates the first pass walked past —
	// reached while the unprotected candidates ahead of them had not yet
	// brought the tier under budget.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return cands[order[x]].Touch < cands[order[y]].Touch })
	var wantSaves []int
	pn, pbytes := n, bytes
	for _, i := range order {
		if !over(pn, pbytes) {
			break
		}
		if cands[i].SecondChance {
			wantSaves = append(wantSaves, i)
		} else {
			pn--
			pbytes -= cands[i].Bytes
		}
	}
	if !reflect.DeepEqual(p.Saves, wantSaves) {
		fail("Saves = %v, want %v", p.Saves, wantSaves)
	}
}

func TestWalkProperties(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands := make([]Candidate, rng.Intn(12))
		for i := range cands {
			// A narrow touch range on purpose: ties must be handled.
			cands[i] = Candidate{
				Touch:        1 + rng.Int63n(16),
				Bytes:        rng.Int63n(100),
				SecondChance: rng.Intn(3) == 0,
			}
		}
		var b Budget
		if rng.Intn(4) > 0 {
			b.MaxStreams = rng.Intn(8)
		}
		if rng.Intn(3) == 0 {
			b.MaxBytes = rng.Int63n(500)
		}
		for _, m := range []Mode{Sweep(), Admit()} {
			checkPlan(t, b, cands, m, b.Walk(cands, m, Mechanism{}))
		}
	}
}

func FuzzVictims(f *testing.F) {
	f.Add(uint8(2), uint16(0), true, []byte{1, 1, 0, 2, 1, 1, 3, 1, 0, 4, 1, 0})
	f.Add(uint8(1), uint16(9), false, []byte{5, 4, 0, 2, 4, 0, 2, 4, 1})
	f.Add(uint8(0), uint16(0), false, []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, maxStreams uint8, maxBytes uint16, sweep bool, data []byte) {
		var cands []Candidate
		for ; len(data) >= 3 && len(cands) < 64; data = data[3:] {
			cands = append(cands, Candidate{
				Touch:        int64(data[0]),
				Bytes:        int64(data[1]),
				SecondChance: data[2]&1 != 0,
			})
		}
		b := Budget{MaxStreams: int(maxStreams), MaxBytes: int64(maxBytes)}
		m := Admit()
		if sweep {
			m = Sweep()
		}
		checkPlan(t, b, cands, m, b.Walk(cands, m, Mechanism{}))
	})
}

// The ghost list against a slice that is scanned: same answers, never past
// the bound, oldest hibernation aged out first.
func TestGhostsBoundAndOrder(t *testing.T) {
	for _, maxStreams := range []int{0, 1, 16, 40} {
		g := NewGhosts(Budget{MaxStreams: maxStreams})
		limit := max(32, 2*maxStreams)
		var model []string // oldest first
		drop := func(name string) bool {
			for i, m := range model {
				if m == name {
					model = append(model[:i], model[i+1:]...)
					return true
				}
			}
			return false
		}
		rng := rand.New(rand.NewSource(int64(maxStreams) + 7))
		for step := 0; step < 5000; step++ {
			name := fmt.Sprint("s", rng.Intn(3*limit))
			if rng.Intn(3) == 0 {
				if got, want := g.Take(name), drop(name); got != want {
					t.Fatalf("step %d: Take(%s) = %v, want %v", step, name, got, want)
				}
			} else {
				g.Record(name)
				drop(name)
				model = append(model, name)
				if len(model) > limit {
					model = model[1:]
				}
			}
			if g.Len() != len(model) || g.Len() > limit {
				t.Fatalf("step %d: Len = %d, model %d, limit %d", step, g.Len(), len(model), limit)
			}
		}
		// Drain: everything the model kept is there, exactly once.
		for _, name := range model {
			if !g.Take(name) || g.Take(name) {
				t.Fatalf("entry %s not held exactly once", name)
			}
		}
		if g.Len() != 0 {
			t.Fatalf("Len = %d after draining", g.Len())
		}
	}
}
