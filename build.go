package ksir

import (
	"runtime"
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/trace"
)

// idBufLen is how many token IDs of one text are kept on the stack; a
// longer text's IDs grow onto the heap.
const idBufLen = 128

// element builds the stream element of p: its tokens' vocabulary IDs, bag
// of words, topic vector and references. It reads the model alone — fixed
// for a stream's life, with fold-in seeded per document — so an element is
// a pure function of (model, post), and any goroutine may build it before
// the commit that checks and pends it (engineStream.add). The element of a
// post the commit rejects is dropped.
func (m *Model) element(p Post) *stream.Element {
	var buf [idBufLen]textproc.WordID
	ids := m.tok.AppendIDs(buf[:0], p.Text, m.vocab)
	refs := make([]stream.ElemID, len(p.Refs))
	for i, r := range p.Refs {
		refs[i] = stream.ElemID(r)
	}
	return &stream.Element{
		ID:     stream.ElemID(p.ID),
		TS:     stream.Time(p.Time),
		Doc:    textproc.NewDocument(ids),
		Topics: m.inf.InferDoc(ids),
		Refs:   refs,
		Text:   p.Text,
	}
}

// buildChunk is how many posts of an AddBatch one claim builds.
const buildChunk = 8

// batchBuild builds the elements of one AddBatch's posts in chunks of
// buildChunk, claimed in post order. The caller builds chunk 0 before it
// queues the op, while up to min(GOMAXPROCS, chunks) − 1 helper goroutines
// claim the following chunks. The committing caller takes element i once
// its chunk is built; until then it builds the next unclaimed chunk
// itself, and it waits only on a chunk a helper is building. So the
// inference of the posts behind a bucket boundary overlaps that bucket's
// ingest, publish and WAL append instead of following them. At GOMAXPROCS
// 1 there is no helper and the committer builds every chunk after the
// first. stop ends the build: no helper outlives the AddBatch call that
// started it.
type batchBuild struct {
	model *Model
	posts []Post
	elems []*stream.Element

	mu      sync.Mutex
	built   sync.Cond // broadcast as each chunk is built
	claimed int       // chunks handed out, in order
	done    []bool    // done[c]: chunk c is built
	helpers sync.WaitGroup
}

// newBatchBuild starts building posts and returns once chunk 0 is built.
func newBatchBuild(m *Model, posts []Post) *batchBuild {
	chunks := (len(posts) + buildChunk - 1) / buildChunk
	b := &batchBuild{
		model: m,
		posts: posts,
		elems: make([]*stream.Element, len(posts)),
		done:  make([]bool, chunks),
	}
	b.built.L = &b.mu
	if chunks == 0 {
		return b
	}
	b.claimed = 1
	for range min(runtime.GOMAXPROCS(0), chunks) - 1 {
		b.helpers.Add(1)
		go b.help()
	}
	b.build(0)
	return b
}

// help builds claimed chunks until none is left.
func (b *batchBuild) help() {
	defer b.helpers.Done()
	for {
		b.mu.Lock()
		c := b.claim()
		b.mu.Unlock()
		if c < 0 {
			return
		}
		b.build(c)
	}
}

// claim hands out the next unclaimed chunk, -1 when none is left. Called
// under mu.
func (b *batchBuild) claim() int {
	if b.claimed == len(b.done) {
		return -1
	}
	b.claimed++
	return b.claimed - 1
}

// build builds the elements of chunk c, then marks it built.
func (b *batchBuild) build(c int) {
	for i := c * buildChunk; i < min((c+1)*buildChunk, len(b.posts)); i++ {
		b.elems[i] = b.model.element(b.posts[i])
	}
	b.mu.Lock()
	b.done[c] = true
	b.built.Broadcast()
	b.mu.Unlock()
}

// elem returns the element of post i once its chunk is built, building
// unclaimed chunks meanwhile. Called by the committing caller.
func (b *batchBuild) elem(i int) *stream.Element {
	c := i / buildChunk
	b.mu.Lock()
	for !b.done[c] {
		if next := b.claim(); next >= 0 {
			b.mu.Unlock()
			b.build(next)
			b.mu.Lock()
		} else {
			b.built.Wait()
		}
	}
	b.mu.Unlock()
	return b.elems[i]
}

// stop claims every chunk left and waits for the helpers to return.
func (b *batchBuild) stop() {
	b.mu.Lock()
	b.claimed = len(b.done)
	b.mu.Unlock()
	b.helpers.Wait()
}

// buildTimed runs the caller's pre-queue build, recording it as a
// post.build child span of a traced op.
func buildTimed(tr *trace.Op, build func()) {
	if tr == nil {
		build()
		return
	}
	start := time.Now()
	build()
	tr.Child("post.build", start, time.Since(start))
}
