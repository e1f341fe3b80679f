package score

import (
	"math"
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// mapCandidateSet is the map-based evaluation state CandidateSet replaced,
// kept as the oracle: two maps per query topic, the shared topics visited
// one by one, every sum in the order the definition gives it. The flat
// implementation must agree with it bit for bit.
type mapCandidateSet struct {
	scorer   *Scorer
	x        topicmodel.TopicVec
	inSet    map[stream.ElemID]struct{}
	value    float64
	covered  []map[int32]float64
	inflProb []map[stream.ElemID]float64
}

func newMapCandidateSet(s *Scorer, x topicmodel.TopicVec) *mapCandidateSet {
	cs := &mapCandidateSet{
		scorer: s, x: x, inSet: make(map[stream.ElemID]struct{}),
		covered:  make([]map[int32]float64, x.Len()),
		inflProb: make([]map[stream.ElemID]float64, x.Len()),
	}
	for i := range cs.covered {
		cs.covered[i] = make(map[int32]float64)
		cs.inflProb[i] = make(map[stream.ElemID]float64)
	}
	return cs
}

func (cs *mapCandidateSet) gain(e *stream.Element, commit bool) float64 {
	if _, ok := cs.inSet[e.ID]; ok {
		return 0
	}
	sigma := cs.scorer.ensureCached(e)
	params := cs.scorer.params
	var gain float64
	for qi, ej := 0, 0; qi < len(cs.x.Topics) && ej < len(e.Topics.Topics); {
		switch topic := cs.x.Topics[qi]; {
		case topic < e.Topics.Topics[ej]:
			qi++
			continue
		case topic > e.Topics.Topics[ej]:
			ej++
			continue
		case cs.x.Probs[qi] > 0:
			var dSem float64
			row := sigma[len(e.Topics.Topics)+ej*len(e.Doc.Terms):]
			for k, tc := range e.Doc.Terms {
				w := int32(tc.Word)
				if sig := row[k]; sig > cs.covered[qi][w] {
					dSem += sig - cs.covered[qi][w]
					if commit {
						cs.covered[qi][w] = sig
					}
				}
			}
			var dInfl float64
			pe := e.Topics.Probs[ej]
			for _, c := range cs.scorer.win.Children(e.ID) {
				p := pe * c.Topics.Prob(topic)
				old := cs.inflProb[qi][c.ID]
				dInfl += float64(p * (1 - old))
				if commit {
					cs.inflProb[qi][c.ID] = 1 - float64((1-old)*(1-p))
				}
			}
			gain += float64(cs.x.Probs[qi] * (float64(params.Lambda*dSem) + float64(params.inflFactor()*dInfl)))
		}
		qi++
		ej++
	}
	if commit {
		cs.inSet[e.ID] = struct{}{}
		cs.value += gain
	}
	return gain
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCandidateSetMatchesMapOracle runs the flat set and the map oracle
// through the same random evaluate/add sequences and demands identical bits
// from every gain and every running value. The flat set is recycled through
// Reset from one sequence to the next — with a different query vector each
// time — so anything a Reset leaves behind shows up as a divergence, and
// every few steps it is forked with CopyFrom, after which the fork and the
// original must both keep agreeing with their own oracles.
func TestCandidateSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	recycled := new(CandidateSet)
	for trial := 0; trial < 60; trial++ {
		scorer, elems, x := randInstance(t, rng, 40)
		if trial%3 == 0 { // a sparse query vector: most elements share one topic or none
			x = topicmodel.TopicVec{Topics: x.Topics[1:3], Probs: []float64{0.7, 0.3}}
		}
		recycled.Reset(scorer, x)
		flat, oracle := recycled, newMapCandidateSet(scorer, x)
		var fork *CandidateSet
		var forkOracle *mapCandidateSet
		var buf ProbeBuf
		for step := 0; step < 60; step++ {
			e := elems[rng.Intn(len(elems))]
			buf.Reset()
			p := scorer.Prepare(&buf, e, x)
			if !sameBits(p.Delta, scorer.Score(e, x)) {
				t.Fatalf("trial %d: probe δ(e%d) = %v, Score = %v", trial, e.ID, p.Delta, scorer.Score(e, x))
			}
			want := oracle.gain(e, false)
			if got := flat.Gain(&p); !sameBits(got, want) {
				t.Fatalf("trial %d step %d: Gain(e%d) = %v, oracle %v", trial, step, e.ID, got, want)
			}
			if got := flat.MarginalGain(e); !sameBits(got, want) {
				t.Fatalf("trial %d step %d: MarginalGain(e%d) = %v, oracle %v", trial, step, e.ID, got, want)
			}
			if fork != nil {
				if got, want := fork.Gain(&p), forkOracle.gain(e, false); !sameBits(got, want) {
					t.Fatalf("trial %d step %d: fork Gain(e%d) = %v, oracle %v", trial, step, e.ID, got, want)
				}
			}
			switch rng.Intn(4) {
			case 0:
				if got, want := flat.AddProbe(&p), oracle.gain(e, true); !sameBits(got, want) {
					t.Fatalf("trial %d step %d: AddProbe(e%d) = %v, oracle %v", trial, step, e.ID, got, want)
				}
			case 1:
				if fork != nil {
					if got, want := fork.Add(e), forkOracle.gain(e, true); !sameBits(got, want) {
						t.Fatalf("trial %d step %d: fork Add(e%d) = %v, oracle %v", trial, step, e.ID, got, want)
					}
				}
			case 2:
				if step%5 == 0 {
					if fork == nil {
						fork = new(CandidateSet)
					}
					fork.CopyFrom(flat)
					forkOracle = newMapCandidateSet(scorer, x)
					for _, m := range flat.Members() {
						forkOracle.gain(m, true)
					}
				}
			}
			if !sameBits(flat.Value(), oracle.value) || flat.Len() != len(oracle.inSet) {
				t.Fatalf("trial %d step %d: value %v / %d members, oracle %v / %d",
					trial, step, flat.Value(), flat.Len(), oracle.value, len(oracle.inSet))
			}
			if fork != nil && !sameBits(fork.Value(), forkOracle.value) {
				t.Fatalf("trial %d step %d: fork value %v, oracle %v", trial, step, fork.Value(), forkOracle.value)
			}
		}
	}

	// The same with the sets of a query sharing one word numbering, as an
	// arena's do. Every probe is prepared before the trial's first
	// admission and evaluated to its end, as MTTD's live for the whole
	// query, so other sets' commits number its words after it was first
	// evaluated. Every tenth step forks the set with the shortest coverage
	// into the recycled set with the longest, whose re-exposed tail must
	// read as uncovered when the fork's coverage grows again.
	var words Words
	shared := make([]*CandidateSet, 4)
	for i := range shared {
		shared[i] = new(CandidateSet)
	}
	for trial := 0; trial < 40; trial++ {
		scorer, elems, x := randInstance(t, rng, 40)
		words.Reset()
		oracles := make([]*mapCandidateSet, len(shared))
		for i, cs := range shared {
			cs.ResetShared(scorer, x, &words)
			oracles[i] = newMapCandidateSet(scorer, x)
		}
		var buf ProbeBuf
		probes := make([]Probe, len(elems))
		for i, e := range elems {
			probes[i] = scorer.Prepare(&buf, e, x)
		}
		for step := 0; step < 80; step++ {
			ei := rng.Intn(len(elems))
			e, p := elems[ei], &probes[ei]
			for si, cs := range shared {
				if got, want := cs.Gain(p), oracles[si].gain(e, false); !sameBits(got, want) {
					t.Fatalf("trial %d step %d: shared set %d Gain(e%d) = %v, oracle %v", trial, step, si, e.ID, got, want)
				}
			}
			if step%10 == 9 {
				extent := func(cs *CandidateSet) (n int) {
					for _, col := range cs.covered {
						n += len(col)
					}
					return n
				}
				long, short := 0, -1
				for si, cs := range shared {
					if extent(cs) > extent(shared[long]) {
						long = si
					}
				}
				for si, cs := range shared {
					if si != long && (short < 0 || extent(cs) < extent(shared[short])) {
						short = si
					}
				}
				shared[long].CopyFrom(shared[short])
				oracles[long] = newMapCandidateSet(scorer, x)
				for _, m := range shared[short].Members() {
					oracles[long].gain(m, true)
				}
				continue
			}
			si := rng.Intn(len(shared))
			if got, want := shared[si].AddProbe(p), oracles[si].gain(e, true); !sameBits(got, want) {
				t.Fatalf("trial %d step %d: shared set %d AddProbe(e%d) = %v, oracle %v", trial, step, si, e.ID, got, want)
			}
			if !sameBits(shared[si].Value(), oracles[si].value) {
				t.Fatalf("trial %d step %d: shared set %d value %v, oracle %v", trial, step, si, shared[si].Value(), oracles[si].value)
			}
		}
	}
}

// A reset set holds no element of the window it last read: pooled arenas
// must not keep expired elements alive.
func TestCandidateSetResetDropsElements(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scorer, elems, x := randInstance(t, rng, 10)
	cs := NewCandidateSet(scorer, x)
	for _, e := range elems {
		cs.Add(e)
	}
	members := cs.Members()
	cs.Reset(nil, topicmodel.TopicVec{})
	if cs.Len() != 0 || cs.Value() != 0 {
		t.Fatalf("after Reset: %d members, value %v", cs.Len(), cs.Value())
	}
	for i, m := range members[:cap(members)][:len(elems)] {
		if m != nil {
			t.Fatalf("member slot %d still points at e%d after Reset", i, m.ID)
		}
	}
	for _, e := range elems {
		if cs.Contains(e.ID) {
			t.Fatalf("e%d still a member after Reset", e.ID)
		}
	}
}
