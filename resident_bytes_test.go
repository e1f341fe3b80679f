package ksir

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/stream"
)

// residentHeapFactor is how far a stream's resident-byte estimate may stray
// from the live heap the stream really holds, either way. The estimate
// steers the residency budget (PersistOptions.MaxResidentBytes), so a
// budget set from it must mean about what it says whatever the stream's
// shape: the cases below cover a window that holds most of the stream and
// an archive that holds most of it.
const residentHeapFactor = 1.5

// trainEightTopicModel trains a model on eight disjoint vocabularies, one
// per topic, and returns it with them.
func trainEightTopicModel(t *testing.T) (*Model, [][]string) {
	t.Helper()
	groups := make([][]string, 8)
	for g := range groups {
		for w := 0; w < 8; w++ {
			groups[g] = append(groups[g], fmt.Sprintf("t%dw%d", g, w))
		}
	}
	rng := rand.New(rand.NewSource(8))
	texts := make([]string, 800)
	for i := range texts {
		words := groups[i%len(groups)]
		var b []byte
		for j := 0; j < 6; j++ {
			b = append(append(b, words[rng.Intn(len(words))]...), ' ')
		}
		texts[i] = string(b)
	}
	m, err := TrainModel(texts, WithTopics(len(groups)), WithIterations(40), WithSeed(1), WithPriors(0.5, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	return m, groups
}

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Engine.WriterResidentBytes, and the hub's ResidentBytes that adds the
// pending buffer to it, stay within residentHeapFactor of the live-heap
// delta of building one stream, across window lengths (how much of the
// stream is held as elements), archive ages (how much of it has left the
// window and is held as records) and topics per element: the σ rows the
// estimate counts scale with them, so the cases prefixed topics=8 run on an
// eight-topic model whose posts mix two to four topics' words. The cases
// prefixed durable run on a hub over a directory that checkpoints every
// four buckets, so their archive is frame ends into the element log, not
// records.
func TestResidentBytesTrackHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds streams of up to 40 000 posts")
	}
	twoTopics := trainTestModel(t)
	sports := [][]string{{"goal", "striker", "keeper", "league", "derby", "penalty",
		"dunk", "rebound", "playoffs", "court", "buzzer", "triple"}}
	eightTopics, groups := trainEightTopicModel(t)
	for _, c := range []struct {
		prefix string
		window time.Duration
		posts  int
	}{
		{"durable/", 5 * time.Minute, 40000},
		{"durable/", 30 * time.Minute, 40000},
		{"", time.Hour, 5000},        // all in the window
		{"", 5 * time.Minute, 5000},  // young archive
		{"", 5 * time.Minute, 40000}, // old archive
		{"", 30 * time.Minute, 40000},
		{"topics=8/", time.Hour, 5000},
		{"topics=8/", 30 * time.Minute, 40000},
	} {
		t.Run(fmt.Sprintf("%swindow=%s/posts=%d", c.prefix, c.window, c.posts), func(t *testing.T) {
			m, vocab := twoTopics, sports
			if c.prefix == "topics=8/" {
				m, vocab = eightTopics, groups
			}
			rng := rand.New(rand.NewSource(int64(c.posts)))
			dir := t.TempDir()
			base := liveHeap()
			h := NewHub()
			if c.prefix == "durable/" {
				h = openTestHub(t, dir, m, PersistOptions{CheckpointEvery: 4})
			}
			hs, err := h.Create("s", m, Options{Window: c.window, Bucket: time.Minute, Eta: 2})
			if err != nil {
				t.Fatal(err)
			}
			const batch = 500
			for start := 0; start < c.posts; start += batch {
				posts := make([]Post, batch)
				for i := range posts {
					id := int64(start + i + 1)
					text := make([]byte, 0, 64)
					if len(vocab) == 1 {
						for w := 0; w < 4+rng.Intn(5); w++ {
							text = append(append(text, vocab[0][rng.Intn(len(vocab[0]))]...), ' ')
						}
					} else { // two to four topics' words, two or three of each
						var mix [][]string
						for g := 0; g < 2+rng.Intn(3); g++ {
							mix = append(mix, vocab[rng.Intn(len(vocab))])
						}
						for w, n := 0, len(mix)*(2+rng.Intn(2)); w < n; w++ {
							words := mix[w%len(mix)]
							text = append(append(text, words[rng.Intn(len(words))]...), ' ')
						}
					}
					posts[i] = Post{ID: id, Time: id, Text: string(text)}
					if id > 1 && rng.Intn(3) == 0 {
						// Mostly recent parents, some long gone: both
						// in-window influence and resurrection.
						back := 1 + rng.Int63n(min(id-1, int64(rng.Intn(2)*20000+50)))
						posts[i].Refs = []int64{id - back}
					}
				}
				if _, err := hs.AddBatch(posts); err != nil {
					t.Fatal(err)
				}
			}
			// The last bucket stays pending, as in a live stream.
			heap := liveHeap() - base
			resident := hs.Stats().Residency.ResidentBytes
			st := hs.stp.Load()
			writer := st.engine.WriterResidentBytes()
			runtime.KeepAlive(h)
			var topics, most int
			st.engine.Window().ForEachActive(func(e *stream.Element) {
				topics, most = topics+e.Topics.Len(), max(most, e.Topics.Len())
			})
			t.Logf("live heap %d B, resident %d B (%.2f×), writer %d B, active %d on %.2f topics each (at most %d)",
				heap, resident, float64(resident)/float64(heap), writer, st.engine.NumActive(), float64(topics)/float64(st.engine.NumActive()), most)
			for name, v := range map[string]int64{"hub ResidentBytes": resident, "WriterResidentBytes": writer} {
				if r := float64(v) / float64(heap); r > residentHeapFactor || r < 1/residentHeapFactor {
					t.Errorf("%s = %d B is %.2f× the stream's %d B of live heap, want within %.1f×", name, v, r, heap, residentHeapFactor)
				}
			}
			if err := h.CloseAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
