package residency

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// c builds a candidate.
func c(touch, bytes int64) Candidate { return Candidate{Touch: touch, Bytes: bytes} }

// Every branch of the one walk, as EnforceResidency drives it.
func TestWalkTable(t *testing.T) {
	n2 := Budget{MaxStreams: 2}
	for _, tc := range []struct {
		name   string
		b      Budget
		cands  []Candidate
		refuse []int // victims the mechanism turns down
		want   []int
	}{
		{name: "no budget, sweep", cands: []Candidate{c(1, 9), c(2, 9)}},
		{name: "no candidates", b: n2},

		{name: "sweep under budget", b: n2, cands: []Candidate{c(1, 1), c(2, 1)}},
		{name: "sweep at the cap evicts nothing", b: n2, cands: []Candidate{c(2, 1), c(1, 1)}},
		{name: "sweep evicts coldest until the count fits", b: n2,
			cands: []Candidate{c(40, 1), c(10, 1), c(30, 1), c(20, 1)},
			want:  []int{1, 3}},
		{name: "sweep evicts coldest until the bytes fit", b: Budget{MaxBytes: 10},
			cands: []Candidate{c(3, 6), c(1, 2), c(2, 5)},
			want:  []int{1, 2}},
		{name: "sweep: either bound suffices to be over", b: Budget{MaxStreams: 5, MaxBytes: 4},
			cands: []Candidate{c(1, 3), c(2, 3)},
			want:  []int{0}},
		{name: "sweep: equal touches go in snapshot order", b: Budget{MaxStreams: 1},
			cands: []Candidate{c(7, 1), c(7, 1), c(7, 1)},
			want:  []int{0, 1}},
		{name: "sweep moves on past a refused victim", b: n2,
			cands: []Candidate{c(1, 1), c(2, 1), c(3, 1)}, refuse: []int{0},
			want: []int{1}},
		{name: "sweep ends over budget when every victim refuses", b: Budget{MaxStreams: 1},
			cands: []Candidate{c(1, 1), c(2, 1), c(3, 1)}, refuse: []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The mechanism's trace: every offer, in the order made.
			var offered []int
			got := tc.b.Walk(tc.cands, func(i int) bool {
				offered = append(offered, i)
				return !slices.Contains(tc.refuse, i)
			})
			if !slices.Equal(got, tc.want) {
				t.Fatalf("Walk = %v, want %v", got, tc.want)
			}
			// Every victim was offered, and only refusals were passed over.
			var accepted []int
			for _, i := range offered {
				if !slices.Contains(tc.refuse, i) {
					accepted = append(accepted, i)
				}
			}
			if !slices.Equal(accepted, got) {
				t.Errorf("mechanism accepted %v, walk reports %v", accepted, got)
			}
			if tc.refuse != nil {
				return
			}
			checkVictims(t, tc.b, tc.cands, got)
			if pure := tc.b.Walk(tc.cands, nil); !slices.Equal(pure, got) {
				t.Errorf("pure decision %v differs from the executed one %v", pure, got)
			}
		})
	}
}

// checkVictims holds a walk decided with no refusals to the policy's
// invariants, each stated independently of how Walk computes it.
func checkVictims(t *testing.T, b Budget, cands []Candidate, victims []int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("budget %+v cands %+v victims %v: %s", b, cands, victims, fmt.Sprintf(format, args...))
	}
	over := func(n int, bytes int64) bool {
		return (b.MaxStreams > 0 && n > b.MaxStreams) || (b.MaxBytes > 0 && bytes > b.MaxBytes)
	}
	n, bytes := len(cands), int64(0)
	for _, cd := range cands {
		bytes += cd.Bytes
	}
	if !over(n, bytes) && len(victims) > 0 {
		fail("a tier within its budget must lose nothing")
	}

	// Victims: distinct, coldest first, and none warmer than a survivor —
	// on a tie, the earlier snapshot slot goes first.
	victim := make(map[int]bool)
	for k, i := range victims {
		if victim[i] {
			fail("victim %d chosen twice", i)
		}
		victim[i] = true
		if k > 0 {
			if prev := victims[k-1]; cands[prev].Touch > cands[i].Touch || (cands[prev].Touch == cands[i].Touch && prev > i) {
				fail("victims %d, %d not coldest-first", prev, i)
			}
		}
	}
	for i, cd := range cands {
		if victim[i] {
			continue
		}
		for v := range victim {
			if cands[v].Touch > cd.Touch || (cands[v].Touch == cd.Touch && v > i) {
				fail("victim %d is warmer than survivor %d", v, i)
			}
		}
	}

	// The walk stops the moment the budget holds: without its last victim
	// the tier would still be over, and it ends over budget only when
	// nothing is left to take.
	for k, i := range victims {
		if !over(n, bytes) {
			fail("victim %d (#%d) chosen after the budget already held", i, k)
		}
		n--
		bytes -= cands[i].Bytes
	}
	if over(n, bytes) && len(victims) < len(cands) {
		fail("still over budget with %d candidates left resident", len(cands)-len(victims))
	}
}

func TestWalkProperties(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands := make([]Candidate, rng.Intn(12))
		for i := range cands {
			// A narrow touch range on purpose: ties must be handled.
			cands[i] = Candidate{Touch: 1 + rng.Int63n(16), Bytes: rng.Int63n(100)}
		}
		var b Budget
		if rng.Intn(4) > 0 {
			b.MaxStreams = rng.Intn(8)
		}
		if rng.Intn(3) == 0 {
			b.MaxBytes = rng.Int63n(500)
		}
		checkVictims(t, b, cands, b.Walk(cands, nil))
	}
}

func FuzzVictims(f *testing.F) {
	f.Add(uint8(2), uint16(0), []byte{1, 1, 2, 1, 3, 1, 4, 1})
	f.Add(uint8(1), uint16(9), []byte{5, 4, 2, 4, 2, 4})
	f.Add(uint8(0), uint16(0), []byte{1, 1})
	f.Fuzz(func(t *testing.T, maxStreams uint8, maxBytes uint16, data []byte) {
		var cands []Candidate
		for ; len(data) >= 2 && len(cands) < 64; data = data[2:] {
			cands = append(cands, Candidate{Touch: int64(data[0]), Bytes: int64(data[1])})
		}
		b := Budget{MaxStreams: int(maxStreams), MaxBytes: int64(maxBytes)}
		checkVictims(t, b, cands, b.Walk(cands, nil))
	})
}
