package persist

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
)

// benchCheckpoint builds a checkpoint shaped like a long-lived stream's:
// history elements of tweet size, the last active of them in the window,
// and a few ranked-list tuples per active element.
func benchCheckpoint(history, active int) *Checkpoint {
	rng := rand.New(rand.NewSource(1))
	ck := &Checkpoint{Name: "bench", ModelHash: 1}
	win := &ck.Core.Window
	ck.Core.Lists = make([][]rankedlist.Item, 50)
	for i := 0; i < history; i++ {
		words := make([]textproc.WordID, 5)
		for j := range words {
			words[j] = textproc.WordID(rng.Intn(5000))
		}
		e := &stream.Element{
			ID: stream.ElemID(i + 1), TS: stream.Time(i + 1),
			Doc:    textproc.NewDocument(words),
			Topics: topicmodel.TopicVec{Topics: []int32{3, 17, 29, 41}, Probs: []float64{0.4, 0.3, 0.2, 0.1}},
			Text:   fmt.Sprintf("post %d with a tweet's worth of words in it", i),
		}
		if i > 0 && rng.Intn(3) == 0 {
			e.Refs = []stream.ElemID{stream.ElemID(1 + rng.Intn(i))}
		}
		win.Log = append(win.Log, e)
		if i >= history-active {
			win.Active = append(win.Active, stream.ActiveRef{ID: e.ID, LastRef: e.TS})
			for _, t := range e.Topics.Topics {
				ck.Core.Lists[t] = append(ck.Core.Lists[t], rankedlist.Item{ID: e.ID, Score: rng.Float64(), LastRef: e.TS})
			}
		}
	}
	win.Now = stream.Time(history)
	win.InWindow = active
	return ck
}

// BenchmarkCheckpoint isolates the codec from the engine: load is what a
// cold touch or a restart pays before core.Restore, steady is one more
// checkpoint of a stream that gained 1% more elements since the last.
func BenchmarkCheckpoint(b *testing.B) {
	const history, active = 100_000, 10_000
	ck := benchCheckpoint(history, active)
	older := *ck
	older.Core.Window.Log = ck.Core.Window.Log[:history-history/100]
	root, dir := b.TempDir(), ""
	b.Run("steady", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A log can only grow: start each round from the older state.
			var err error
			if dir, err = os.MkdirTemp(root, "ck"); err != nil {
				b.Fatal(err)
			}
			if err := WriteCheckpoint(dir, &older); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := WriteCheckpoint(dir, ck); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadCheckpoint(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}
