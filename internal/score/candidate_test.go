package score

import (
	"math"
	"math/rand"
	"testing"

	"github.com/social-streams/ksir/internal/papertest"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// randInstance builds a random scorer + active elements + query for
// property tests: z topics, vocabulary of 30 words, n elements with random
// topic vectors, documents and references.
func randInstance(t *testing.T, rng *rand.Rand, n int) (*Scorer, []*stream.Element, topicmodel.TopicVec) {
	t.Helper()
	const z, v = 4, 30
	m := &topicmodel.Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
	for i := 0; i < z; i++ {
		var sum float64
		for w := 0; w < v; w++ {
			m.Phi[i*v+w] = rng.Float64()
			sum += m.Phi[i*v+w]
		}
		for w := 0; w < v; w++ {
			m.Phi[i*v+w] /= sum
		}
		m.PTopic[i] = 1.0 / z
	}
	win := stream.NewActiveWindow(stream.Time(n + 1)) // everything stays active
	scorer, err := NewScorer(m, win, Params{Lambda: 0.4 + 0.2*rng.Float64(), Eta: 1 + rng.Float64()*5})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]*stream.Element, n)
	for i := range elems {
		nw := 1 + rng.Intn(5)
		ids := make([]textproc.WordID, nw)
		for j := range ids {
			ids[j] = textproc.WordID(rng.Intn(v))
		}
		dense := make([]float64, z)
		var sum float64
		k := 1 + rng.Intn(2)
		for j := 0; j < k; j++ {
			dense[rng.Intn(z)] += rng.Float64()
		}
		for _, d := range dense {
			sum += d
		}
		for j := range dense {
			dense[j] /= sum
		}
		e := &stream.Element{
			ID:     stream.ElemID(i + 1),
			TS:     stream.Time(i + 1),
			Doc:    textproc.NewDocument(ids),
			Topics: topicmodel.NewTopicVec(dense),
		}
		for r := 0; r < rng.Intn(3) && i > 0; r++ {
			e.Refs = append(e.Refs, stream.ElemID(1+rng.Intn(i)))
		}
		elems[i] = e
		if _, err := win.Advance(e.TS, []*stream.Element{e}); err != nil {
			t.Fatal(err)
		}
	}
	qd := make([]float64, z)
	var qs float64
	for j := range qd {
		qd[j] = rng.Float64()
		qs += qd[j]
	}
	for j := range qd {
		qd[j] /= qs
	}
	return scorer, elems, topicmodel.NewTopicVec(qd)
}

// Property: incremental Add/Value matches the direct SetScore evaluation for
// random insertion orders, and MarginalGain(e) == Value(S+e) − Value(S).
func TestIncrementalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		scorer, elems, x := randInstance(t, rng, 12)
		cs := NewCandidateSet(scorer, x)
		var set []*stream.Element
		perm := rng.Perm(len(elems))
		for _, pi := range perm[:6] {
			e := elems[pi]
			gain := cs.MarginalGain(e)
			added := cs.Add(e)
			if math.Abs(gain-added) > 1e-9 {
				t.Fatalf("trial %d: MarginalGain=%v but Add returned %v", trial, gain, added)
			}
			set = append(set, e)
			direct := scorer.SetScore(set, x)
			if math.Abs(cs.Value()-direct) > 1e-9 {
				t.Fatalf("trial %d after %d adds: incremental %v != direct %v",
					trial, len(set), cs.Value(), direct)
			}
		}
	}
}

// Property (Lemma 3.6/3.7 combined): f(·, x) is monotone — every marginal
// gain is non-negative.
func TestMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		scorer, elems, x := randInstance(t, rng, 10)
		cs := NewCandidateSet(scorer, x)
		for _, pi := range rng.Perm(len(elems)) {
			if gain := cs.MarginalGain(elems[pi]); gain < -1e-12 {
				t.Fatalf("trial %d: negative marginal gain %v", trial, gain)
			}
			cs.Add(elems[pi])
		}
	}
}

// Property (submodularity): for S ⊆ T and e ∉ T,
// Δ(e|S) ≥ Δ(e|T). We build T by extending a copy of S.
func TestSubmodularityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		scorer, elems, x := randInstance(t, rng, 12)
		perm := rng.Perm(len(elems))
		e := elems[perm[0]]
		sSize := rng.Intn(4)
		tSize := sSize + rng.Intn(4)

		small := NewCandidateSet(scorer, x)
		big := NewCandidateSet(scorer, x)
		for i := 0; i < tSize; i++ {
			member := elems[perm[1+i]]
			if i < sSize {
				small.Add(member)
			}
			big.Add(member)
		}
		gs, gt := small.MarginalGain(e), big.MarginalGain(e)
		if gs < gt-1e-9 {
			t.Fatalf("trial %d: submodularity violated: Δ(e|S)=%v < Δ(e|T)=%v (|S|=%d |T|=%d)",
				trial, gs, gt, sSize, tSize)
		}
	}
}

// The float premise of MTTS's rejection certificates: for T ⊆ S the
// computed Δ(e|S) exceeds the computed Δ(e|T) by at most a relative 1e-12.
// In exact arithmetic it never exceeds it. In floats it can: S folds its
// members' influence into 1 − (1−old)(1−p) in another order than T does, so
// an entry can round an ulp lower. The instances are dense in exactly that —
// six references per element, so a child has several parents in a set, and
// half the time S is T's members shuffled — plus repeated words (a 12-word
// vocabulary), elements and children without mass on the query topics, and
// λ ∈ {0, 0.5, 1}. The test fails if no excess shows up at all,
// which would mean it no longer exercises the reordering.
func TestGainMonotoneAcrossInsertionOrders(t *testing.T) {
	const z, v, n = 3, 12, 24
	rng := rand.New(rand.NewSource(23))
	var worst float64
	var excesses, trials int
	for _, lambda := range []float64{0, 0.5, 1} {
		for inst := 0; inst < 30; inst++ {
			m := &topicmodel.Model{Z: z, V: v, Phi: make([]float64, z*v), PTopic: make([]float64, z)}
			for i := 0; i < z; i++ {
				var sum float64
				for w := 0; w < v; w++ {
					m.Phi[i*v+w] = rng.Float64()
					sum += m.Phi[i*v+w]
				}
				for w := 0; w < v; w++ {
					m.Phi[i*v+w] /= sum
				}
				m.PTopic[i] = 1.0 / z
			}
			win := stream.NewActiveWindow(stream.Time(n + 1))
			scorer, err := NewScorer(m, win, Params{Lambda: lambda, Eta: 0.5 + 2*rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			elems := make([]*stream.Element, n)
			for i := range elems {
				words := make([]textproc.WordID, 1+rng.Intn(6))
				for j := range words {
					words[j] = textproc.WordID(rng.Intn(v))
				}
				// Three in four elements are on topics 0 and 1, which the
				// query asks for; the rest are on topic 2 alone.
				dense := make([]float64, z)
				if rng.Intn(4) > 0 {
					dense[0], dense[1] = 0.1+rng.Float64(), 0.1+rng.Float64()
				} else {
					dense[2] = 1
				}
				var sum float64
				for _, d := range dense {
					sum += d
				}
				for j := range dense {
					dense[j] /= sum
				}
				e := &stream.Element{
					ID:     stream.ElemID(i + 1),
					TS:     stream.Time(i + 1),
					Doc:    textproc.NewDocument(words),
					Topics: topicmodel.NewTopicVec(dense),
				}
				for r := 0; r < 6 && i > 0; r++ {
					e.Refs = append(e.Refs, stream.ElemID(1+rng.Intn(i)))
				}
				elems[i] = e
				if _, err := win.Advance(e.TS, []*stream.Element{e}); err != nil {
					t.Fatal(err)
				}
			}
			x := topicmodel.TopicVec{Topics: []int32{0}, Probs: []float64{1}}
			if inst%2 == 1 {
				x = topicmodel.TopicVec{Topics: []int32{0, 1}, Probs: []float64{0.6, 0.4}}
			}

			for trial := 0; trial < 200; trial++ {
				perm := rng.Perm(n)
				e := elems[perm[0]]
				tSize := 1 + rng.Intn(10)
				sSize := tSize + max(0, rng.Intn(6)-3)
				tMembers := perm[1 : 1+tSize]
				sMembers := append([]int(nil), perm[1:1+sSize]...)
				rng.Shuffle(sSize, func(i, j int) { sMembers[i], sMembers[j] = sMembers[j], sMembers[i] })
				small, big := NewCandidateSet(scorer, x), NewCandidateSet(scorer, x)
				for _, i := range tMembers {
					small.Add(elems[i])
				}
				for _, i := range sMembers {
					big.Add(elems[i])
				}
				gt, gs := small.MarginalGain(e), big.MarginalGain(e)
				trials++
				if gs > gt*(1+1e-12) {
					t.Fatalf("λ=%v instance %d trial %d: Δ(e|S) = %v > Δ(e|T)·(1+1e-12), Δ(e|T) = %v (|T|=%d |S|=%d)",
						lambda, inst, trial, gs, gt, tSize, sSize)
				}
				if gs > gt {
					excesses++
					worst = math.Max(worst, (gs-gt)/gt)
				}
			}
		}
	}
	if excesses == 0 {
		t.Fatal("Δ(e|S) never exceeded Δ(e|T): the instances no longer exercise the reordered influence update")
	}
	t.Logf("Δ(e|S) > Δ(e|T) in %d of %d trials, largest relative excess %.3g", excesses, trials, worst)
}

func TestAddDuplicateIsNoop(t *testing.T) {
	win, elems := papertest.Window()
	scorer, err := NewScorer(papertest.Model(), win, Params{Lambda: 0.5, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := papertest.QueryUniform()
	cs := NewCandidateSet(scorer, x)
	first := cs.Add(elems[0])
	if first <= 0 {
		t.Fatalf("first add gained %v", first)
	}
	v := cs.Value()
	if again := cs.Add(elems[0]); again != 0 {
		t.Errorf("duplicate add gained %v", again)
	}
	if cs.Value() != v || cs.Len() != 1 {
		t.Errorf("duplicate add changed state: value %v→%v len %d", v, cs.Value(), cs.Len())
	}
	if cs.MarginalGain(elems[0]) != 0 {
		t.Error("MarginalGain of member should be 0")
	}
}

func TestCandidateSetAccessors(t *testing.T) {
	win, elems := papertest.Window()
	scorer, err := NewScorer(papertest.Model(), win, Params{Lambda: 0.5, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCandidateSet(scorer, papertest.QueryUniform())
	if cs.Len() != 0 || cs.Value() != 0 {
		t.Error("empty set should have len 0 value 0")
	}
	cs.Add(elems[2])
	cs.Add(elems[0])
	if !cs.Contains(3) || !cs.Contains(1) || cs.Contains(2) {
		t.Error("Contains wrong")
	}
	got := cs.IDs()
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("IDs = %v, want [3 1] (insertion order)", got)
	}
}

// Marginal gain must reflect the query vector: an element with no topic
// overlap with x gains exactly 0.
func TestNoTopicOverlapGainsZero(t *testing.T) {
	win, elems := papertest.Window()
	scorer, err := NewScorer(papertest.Model(), win, Params{Lambda: 0.5, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Query only on θ2; e4 is purely θ1 — but e4 expired, use a pure-θ1
	// query against e1 restricted to topic θ1=0 overlap... e1 has both
	// topics, so instead query topic θ1 only and check e4-like behaviour
	// via element e1 restricted: use query on a topic no element has.
	x := topicmodel.TopicVec{Topics: []int32{1}, Probs: []float64{1}}
	cs := NewCandidateSet(scorer, x)
	// e3 is mostly θ1 but has p2=0.11 > 0 → small positive gain.
	if g := cs.MarginalGain(elems[2]); g <= 0 {
		t.Errorf("e3 gain on θ2 = %v, want small positive", g)
	}
	// Synthetic element with only θ1 mass gains zero on a θ2-only query.
	foreign := &stream.Element{
		ID: 99, TS: 8,
		Doc:    textproc.NewDocument([]textproc.WordID{0}),
		Topics: topicmodel.TopicVec{Topics: []int32{0}, Probs: []float64{1}},
	}
	if g := cs.MarginalGain(foreign); g != 0 {
		t.Errorf("disjoint-topic element gain = %v, want 0", g)
	}
}
