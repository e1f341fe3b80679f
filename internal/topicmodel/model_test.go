package topicmodel

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopicVecProb(t *testing.T) {
	v := NewTopicVec([]float64{0, 0.3, 0, 0.7})
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if got := v.Prob(1); got != 0.3 {
		t.Errorf("Prob(1) = %v", got)
	}
	if got := v.Prob(3); got != 0.7 {
		t.Errorf("Prob(3) = %v", got)
	}
	if got := v.Prob(0); got != 0 {
		t.Errorf("Prob(0) = %v, want 0", got)
	}
	if got := v.Sum(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Sum = %v", got)
	}
}

// Prob's scan returns what a binary search for the topic returns, bit for
// bit, on empty vectors, absent topics below, between and above the present
// ones, and a vector as wide as a dense query.
func TestTopicVecProbMatchesBinarySearch(t *testing.T) {
	search := func(v TopicVec, topic int32) float64 {
		j := sort.Search(len(v.Topics), func(j int) bool { return v.Topics[j] >= topic })
		if j < len(v.Topics) && v.Topics[j] == topic {
			return v.Probs[j]
		}
		return 0
	}
	wide := make([]float64, 250)
	for i := range wide {
		wide[i] = float64(i%7) / 7 // every seventh topic absent
	}
	for _, c := range []struct {
		name string
		v    TopicVec
	}{
		{"empty", TopicVec{}},
		{"one topic", NewTopicVec([]float64{0, 0, 1})},
		{"four topics", NewTopicVec([]float64{0, 0.1, 0, 0.2, 0.3, 0, 0, 0.4})},
		{"250 topics", NewTopicVec(wide)},
	} {
		for topic := int32(-1); topic <= 251; topic++ {
			if got, want := c.v.Prob(topic), search(c.v, topic); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: Prob(%d) = %v, binary search %v", c.name, topic, got, want)
			}
		}
	}
}

func TestTopicVecCosine(t *testing.T) {
	a := NewTopicVec([]float64{1, 0})
	b := NewTopicVec([]float64{0, 1})
	if got := a.Cosine(b); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := a.Cosine(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v", got)
	}
	if got := (TopicVec{}).Cosine(a); got != 0 {
		t.Errorf("empty cosine = %v", got)
	}
}

func TestTruncate(t *testing.T) {
	v := NewTopicVec([]float64{0.5, 0.3, 0.15, 0.04, 0.01})
	got := v.Truncate(4, 0.05)
	if got.Len() != 3 {
		t.Fatalf("Truncate kept %d topics, want 3: %+v", got.Len(), got)
	}
	if math.Abs(got.Sum()-1) > 1e-12 {
		t.Errorf("truncated sum = %v, want 1 (renormalized)", got.Sum())
	}
	// Relative ordering preserved after renormalization.
	if !(got.Prob(0) > got.Prob(1) && got.Prob(1) > got.Prob(2)) {
		t.Errorf("ordering lost: %+v", got)
	}
}

func TestTruncateKeepsLargestWhenAllBelowThreshold(t *testing.T) {
	dense := make([]float64, 100)
	for i := range dense {
		dense[i] = 0.01
	}
	v := NewTopicVec(dense)
	got := v.Truncate(4, 0.05)
	if got.Len() != 1 {
		t.Fatalf("want single largest entry kept, got %d", got.Len())
	}
	if math.Abs(got.Sum()-1) > 1e-12 {
		t.Errorf("sum = %v", got.Sum())
	}
}

func TestTruncateMaxTopics(t *testing.T) {
	v := NewTopicVec([]float64{0.2, 0.2, 0.2, 0.2, 0.2})
	got := v.Truncate(2, 0.0)
	if got.Len() != 2 {
		t.Fatalf("kept %d, want 2", got.Len())
	}
}

// Property: Truncate always returns a distribution (sums to 1) with sorted,
// unique topics, for any random non-empty input.
func TestTruncateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		z := 1 + rng.Intn(30)
		dense := make([]float64, z)
		var sum float64
		for i := range dense {
			dense[i] = rng.Float64()
			sum += dense[i]
		}
		for i := range dense {
			dense[i] /= sum
		}
		v := NewTopicVec(dense).Truncate(1+rng.Intn(5), rng.Float64()*0.2)
		if v.Len() == 0 {
			return false
		}
		if math.Abs(v.Sum()-1) > 1e-9 {
			return false
		}
		for i := 1; i < v.Len(); i++ {
			if v.Topics[i] <= v.Topics[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// truncateBySorting is Truncate as it was before it selected in one pass:
// sort everything by (probability descending, topic ascending), cut, sort
// the survivors back by topic. The reference for TestTruncateMatchesSorting.
func truncateBySorting(v TopicVec, maxTopics int, minProb float64) TopicVec {
	type tp struct {
		t int32
		p float64
	}
	all := make([]tp, v.Len())
	for i := range v.Topics {
		all[i] = tp{v.Topics[i], v.Probs[i]}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].p != all[b].p {
			return all[a].p > all[b].p
		}
		return all[a].t < all[b].t
	})
	kept := all[:0]
	for i, e := range all {
		if i >= maxTopics || (e.p < minProb && i > 0) {
			break
		}
		kept = append(kept, e)
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a].t < kept[b].t })
	var out TopicVec
	var sum float64
	for _, e := range kept {
		sum += e.p
	}
	for _, e := range kept {
		out.Topics = append(out.Topics, e.t)
		out.Probs = append(out.Probs, e.p/sum)
	}
	return out
}

// Truncate's one-pass selection answers exactly as sorting did, float for
// float, on random vectors: dense and sparse ones, probabilities drawn from
// a few values so that ties are the rule (the lower topic wins), thresholds
// nothing reaches (the largest entry is kept), more topics asked for than
// the stack array or the vector holds.
func TestTruncateMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5000; trial++ {
		dense := make([]float64, 1+rng.Intn(60))
		levels := 1 + rng.Intn(6)
		for i := range dense {
			switch rng.Intn(3) {
			case 0: // absent
			case 1:
				dense[i] = float64(1+rng.Intn(levels)) / 64
			default:
				dense[i] = rng.Float64()
			}
		}
		v := NewTopicVec(dense)
		maxTopics := 1 + rng.Intn(12)
		minProb := []float64{0, 1.0 / 64, 2.0 / 64, rng.Float64(), 2}[rng.Intn(5)]
		got, want := v.Truncate(maxTopics, minProb), truncateBySorting(v, maxTopics, minProb)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Truncate(%d, %v) of %+v:\n got %+v\nwant %+v", maxTopics, minProb, v, got, want)
		}
		if got.Len() > 0 && math.Abs(got.Sum()-1) > 1e-12 {
			t.Fatalf("Truncate(%d, %v) of %+v sums to %v", maxTopics, minProb, v, got.Sum())
		}
	}
}

func TestModelValidate(t *testing.T) {
	m := &Model{Z: 2, V: 2, Phi: []float64{0.5, 0.5, 0.9, 0.1}, PTopic: []float64{0.25, 0.75}}
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		phi    []float64
		pTopic []float64
	}{
		{"non-normalized topic", []float64{0.5, 0.5, 0.9, 0.2}, m.PTopic},
		{"wrong-size Phi", []float64{0.5}, m.PTopic},
		{"negative φ", []float64{0.5, 0.5, 1.1, -0.1}, m.PTopic},
		{"NaN φ", []float64{0.5, 0.5, math.NaN(), 0.1}, m.PTopic},
		{"infinite φ", []float64{0.5, 0.5, math.Inf(1), 0.1}, m.PTopic},
		{"no PTopic", m.Phi, nil},
		{"short PTopic", m.Phi, []float64{1}},
		{"non-normalized PTopic", m.Phi, []float64{0.5, 0.6}},
		{"NaN PTopic", m.Phi, []float64{math.NaN(), 1}},
		{"negative PTopic", m.Phi, []float64{-0.5, 1.5}},
	} {
		bad := &Model{Z: 2, V: 2, Phi: c.phi, PTopic: c.pTopic}
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}
