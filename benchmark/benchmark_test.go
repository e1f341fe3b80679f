package main

import (
	"regexp"
	"testing"
	"time"

	"github.com/social-streams/ksir"
)

// tiny is a spec small enough for a unit test: a few hundred posts.
func tiny(s spec) spec {
	s.posts, s.train, s.preload = 3000, 2500, 300
	if s.active > 0 {
		s.active = 200
	}
	return s
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		s = tiny(s)
		a, err := generate(s, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.sha != b.sha {
			t.Errorf("%s: seed 7 hashed to %s, then to %s", s.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", s.name)
		}
		// The seed draws the traffic; the corpus under it is fixed.
		if i := s.preload - 1; a.posts[i].Text != c.posts[i].Text || a.posts[i].ID != c.posts[i].ID {
			t.Errorf("%s: seeds 7 and 8 run on different corpora", s.name)
		}
		for i := 1; i < len(a.posts); i++ {
			if a.posts[i].Time < a.posts[i-1].Time {
				t.Fatalf("%s: post %d is earlier than the post before it", s.name, a.posts[i].ID)
			}
		}
	}
}

// TestOrderedSender sends a timeline through one sender, in calls of uneven
// size, and checks the two things the ordered-sender rule is for: no post is
// refused, and the sender's bucket tracker agrees with the stream about which
// call closed which bucket.
func TestOrderedSender(t *testing.T) {
	in, err := generate(tiny(specs[0]), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ksir.TrainModel(in.texts, ksir.WithTopics(topics), ksir.WithIterations(3), ksir.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ksir.New(model, in.opts)
	if err != nil {
		t.Fatal(err)
	}
	tracker := newBucketTracker(in.opts, 0, 0)
	closed := 0
	for i := 0; i < len(in.posts); {
		j := min(i+1+i%7, len(in.posts))
		n, err := st.AddBatch(in.posts[i:j])
		if err != nil || n != j-i {
			t.Fatalf("call at post %d accepted %d of %d: %v", in.posts[i].ID, n, j-i, err)
		}
		for _, p := range in.posts[i:j] {
			if _, ok := tracker.add(p.Time); ok {
				closed++
			}
		}
		if got := st.Stats().Bucket; got != tracker.seq {
			t.Fatalf("after post %d the stream is at bucket %d, the tracker at %d", in.posts[j-1].ID, got, tracker.seq)
		}
		i = j
	}
	if closed < 10 {
		t.Fatalf("only %d buckets closed: the timeline does not cross bucket boundaries", closed)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n  int
		p  float64
		v  float64
		ok bool
	}{
		{200, 95, 190, true},      // ten samples beyond
		{199, 95, 190, false},     // nine
		{200, 99, 198, false},     // two
		{200, 50, 100, true},      // the median needs no tail
		{1, 50, 1, true},          //
		{1000 / 5, 90, 180, true}, // twenty beyond
	} {
		got, ok := percentile(v[:c.n], c.p)
		if got != c.v || ok != c.ok {
			t.Errorf("p%v of 1..%d = %v, %v; want %v, %v", c.p, c.n, got, ok, c.v, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of no samples was reported")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	l := newSpanLog()
	now := time.Now()
	outer := l.child(0, "client", "add", now, 100)
	mid := l.child(outer, "server", "add", now, 70)
	l.child(mid, "engine", "add", now, 30)
	l.child(mid, "wal", "add", now, 50) // children cover more than the parent
	self := selfTimes(l.spans)
	want := map[string]time.Duration{"client": 30, "server": 0, "engine": 30, "wal": 50}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
}

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles = %v %v %v, want 15 30 45", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 80, 120, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", steady, steady, lower, unchanged},
		{"15% slower", steady, scale(1.15), lower, regressed},
		{"15% faster", steady, scale(0.85), lower, improved},
		{"5% slower", steady, scale(1.05), lower, unchanged},
		{"15% lower rate", steady, scale(0.85), higher, regressed},
		{"15% higher rate", steady, scale(1.15), higher, improved},
		{"spread wider than the bound", noisy, scale(1.15), lower, unresolved},
	} {
		if got, _ := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCatalogue holds BENCHMARK.json to the limits of its contract and to
// the workloads this package implements.
func TestCatalogue(t *testing.T) {
	bs, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bs.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d implemented", len(bs.Workloads), len(specs))
	}
	for i, w := range bs.Workloads {
		check("workload", w.Name)
		if w.Name != specs[i].name || drives[w.Name] == nil {
			t.Errorf("workload %q is not implemented in that place", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range bs.EndToEnd {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range bs.PerLayer {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if len(bs.EndToEnd) < 1 || len(bs.EndToEnd) > 16 || len(bs.PerLayer) < 1 || len(bs.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bs.EndToEnd), len(bs.PerLayer))
	}
	// 4 + 22 runs per workload, within 3420 s with two builds: the runs'
	// measured phases alone must leave most of that to set-up and checks.
	if runs := 4 + 22*len(bs.Workloads); float64(runs*bs.RunSeconds) > 0.4*3420 {
		t.Errorf("%d runs of %d s leave too little of the driver's 3420 s", runs, bs.RunSeconds)
	}
}
