package ksir

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/social-streams/ksir/internal/dataset"
)

// datasetPosts turns a synthetic corpus of the given profile into posts,
// one per second, and returns them with their texts.
func datasetPosts(tb testing.TB, p dataset.Profile) ([]Post, []string) {
	tb.Helper()
	d, err := dataset.Generate(p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	posts := make([]Post, len(d.Elements))
	texts := make([]string, len(posts))
	for i, e := range d.Elements {
		words := make([]string, len(d.Docs[i]))
		for j, w := range d.Docs[i] {
			words[j] = d.Vocab.Word(w)
		}
		texts[i] = strings.Join(words, " ")
		refs := make([]int64, len(e.Refs))
		for j, r := range e.Refs {
			refs[j] = int64(r)
		}
		posts[i] = Post{ID: int64(e.ID), Time: int64(i + 1), Text: texts[i], Refs: refs}
	}
	return posts, texts
}

// What building a post's element allocates, on tweet-length and
// AMiner-length texts: the token IDs of a text of up to idBufLen tokens
// live on the stack, so tokenIDs allocates its result alone (a copy of
// what it returns) and an element is its struct, its reference list, its
// term list and the two slices of its topic vector. Tokenizing alone took
// 9 allocations per tweet and 51 per AMiner text before the tokenizer read
// its tokens in place, and the bag of words 3–6 more through a map.
func TestElementAllocationsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, p := range []dataset.Profile{dataset.TwitterLike(400), dataset.AMinerLike(200)} {
		posts, texts := datasetPosts(t, p)
		m, err := TrainModel(texts, WithTopics(10), WithIterations(5), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, post := range posts { // grow the inferencer's pooled scratch
			m.element(post)
		}
		for _, post := range posts {
			n := len(m.tokenIDs(post.Text))
			if n > idBufLen {
				continue
			}
			wantIDs, wantElem := 1.0, 5.0
			if n == 0 {
				wantIDs, wantElem = 0, 2 // nothing to copy, count or infer
			}
			if len(post.Refs) == 0 {
				wantElem--
			}
			if got := testing.AllocsPerRun(3, func() { m.tokenIDs(post.Text) }); got != wantIDs {
				t.Errorf("%s post %d (%d IDs): tokenIDs allocates %v times, want %v", p.Name, post.ID, n, got, wantIDs)
			}
			if got := testing.AllocsPerRun(3, func() { m.element(post) }); got > wantElem {
				t.Errorf("%s post %d (%d IDs, %d refs): element allocates %v times, want ≤ %v",
					p.Name, post.ID, n, len(post.Refs), got, wantElem)
			}
		}
	}
}

// errClass names the sentinel an ingest error wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrOutOfOrder):
		return "ErrOutOfOrder"
	case errors.Is(err, ErrBadPost):
		return "ErrBadPost"
	}
	return err.Error()
}

// AddBatch builds its posts' elements in chunks — on the caller before it
// queues, on helper goroutines, and on the committing caller — while Add
// builds each post's element alone before it queues. Neither may show:
// seeded batches of 1–300 posts, some with a duplicate ID, an out-of-order
// post and a non-positive time in the middle, fed by AddBatch to one
// stream and post by post to a twin, must be accepted alike, rejected with
// the same sentinels, and leave byte-identical exported state and identical
// answers — at GOMAXPROCS 1 (no helper: the committer builds), 2 and 4.
func TestBatchElementsMatchSerial(t *testing.T) {
	m := trainTestModel(t)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			posts := genPosts(900, 91)
			batched, serial := mirrorStream(t, m), mirrorStream(t, m)
			rejected := map[string]int{}
			for off := 0; off < len(posts); {
				batch := slices.Clone(posts[off:min(off+1+rng.Intn(300), len(posts))])
				off += len(batch)
				if n := len(batch); n >= 8 && rng.Intn(3) > 0 {
					batch[n/4].ID = batch[0].ID
					batch[n/2].Time = batch[n/2-1].Time - 1
					batch[3*n/4].Time = -rng.Int63n(2)
				}
				// AddBatch stops at a rejected post: resubmit the rest.
				for len(batch) > 0 {
					got, gotErr := batched.AddBatch(batch)
					want := 0
					var wantErr error
					for _, p := range batch {
						if wantErr = serial.Add(p); wantErr != nil {
							break
						}
						want++
					}
					if got != want || errClass(gotErr) != errClass(wantErr) {
						t.Fatalf("AddBatch of %d posts = %d, %v; Add one by one = %d, %v",
							len(batch), got, gotErr, want, wantErr)
					}
					if gotErr == nil {
						break
					}
					rejected[errClass(gotErr)]++
					batch = batch[got+1:]
				}
				if !bytes.Equal(exportGob(t, batched), exportGob(t, serial)) {
					t.Fatalf("exported state diverges after %d posts", off)
				}
			}
			if rejected["ErrBadPost"] == 0 || rejected["ErrOutOfOrder"] == 0 {
				t.Fatalf("rejections %v: the faults planted did not all occur", rejected)
			}
			end := posts[len(posts)-1].Time + 600
			for _, st := range []*Stream{batched, serial} {
				if err := st.Flush(end); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(exportGob(t, batched), exportGob(t, serial)) {
				t.Fatal("exported state diverges after the final flush")
			}
			sameResults(t, "AddBatch vs Add", persistQueries(t, func(q Query) (Result, error) {
				return batched.Query(nil, q)
			}), persistQueries(t, func(q Query) (Result, error) {
				return serial.Query(nil, q)
			}))
		})
	}
}

// buildersRunning returns the stacks of the goroutines building a batch's
// elements at the instant of the call ("" when none is).
func buildersRunning() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("ksir.(*batchBuild).build")) {
			out = append(out, string(g))
		}
	}
	return strings.Join(out, "\n\n")
}
