package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"time"

	"github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/connector"
	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/persist"
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/score"
	"github.com/social-streams/ksir/internal/server"
	"github.com/social-streams/ksir/internal/stream"
	"github.com/social-streams/ksir/internal/textproc"
	"github.com/social-streams/ksir/internal/topicmodel"
	"github.com/social-streams/ksir/internal/trace"
)

// The onion replay feeds one fixed slice of a workload's inputs to the
// service at successive depths, from the engine alone out to the client SDK
// over loopback, each depth on a fresh stream. What a depth costs beyond the
// one inside it is that layer's self time. All calls go through exported
// functions; spans inside the program are a later issue.

// modelParts mirrors the model file Model.Save writes, which is how the
// benchmark gets at the tokenizer-side vocabulary and the topic model for
// the layers it times alone.
type modelParts struct {
	Version       int
	Z, V          int
	Phi, PTopic   []float64
	Words         []string
	Freq, DocFreq []int64
	Seed          int64
}

type layerModel struct {
	tok   *textproc.Tokenizer
	vocab *textproc.Vocabulary
	tm    *topicmodel.Model
	inf   *topicmodel.Inferencer
}

func splitModel(m *ksir.Model) (*layerModel, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	var mp modelParts
	if err := gob.NewDecoder(&buf).Decode(&mp); err != nil {
		return nil, fmt.Errorf("reading the model file: %w", err)
	}
	vocab := textproc.NewVocabulary()
	for _, w := range mp.Words {
		vocab.Add(w)
	}
	vocab.SetCounts(mp.Freq, mp.DocFreq)
	tm := &topicmodel.Model{Z: mp.Z, V: mp.V, Phi: mp.Phi, PTopic: mp.PTopic}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	return &layerModel{tok: textproc.NewTokenizer(), vocab: vocab, tm: tm, inf: topicmodel.NewInferencer(tm, mp.Seed)}, nil
}

func (lm *layerModel) ids(text string) []textproc.WordID {
	var ids []textproc.WordID
	for _, t := range lm.tok.Tokenize(text) {
		if id, ok := lm.vocab.ID(t); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// element turns a post into the engine's element the way Stream.Add does.
// The two steps it reports are the tokenizer with its vocabulary lookup and
// the topic inference.
func (lm *layerModel) element(p ksir.Post) (e *stream.Element, tokenize, infer time.Duration) {
	start := time.Now()
	ids := lm.ids(p.Text)
	mid := time.Now()
	topics := lm.inf.InferDoc(ids)
	end := time.Now()
	refs := make([]stream.ElemID, len(p.Refs))
	for i, r := range p.Refs {
		refs[i] = stream.ElemID(r)
	}
	return &stream.Element{ID: stream.ElemID(p.ID), TS: stream.Time(p.Time), Doc: textproc.NewDocument(ids),
		Topics: topics, Refs: refs, Text: p.Text}, mid.Sub(start), end.Sub(mid)
}

// feedBuckets hands elems to ingest one bucket at a time, closing a bucket
// when the first element beyond its end arrives, as Stream.Add does. The
// open bucket at the end stays un-ingested, as it does in a stream.
func feedBuckets(elems []*stream.Element, bucket stream.Time, ingest func(end stream.Time, batch []*stream.Element) error) error {
	var pending []*stream.Element
	var end stream.Time
	for _, e := range elems {
		if len(pending) > 0 && e.TS > end {
			if err := ingest(end, pending); err != nil {
				return err
			}
			pending = nil
		}
		if len(pending) == 0 {
			end = ((e.TS-1)/bucket + 1) * bucket
		}
		pending = append(pending, e)
	}
	return nil
}

// replay is the state of one onion replay.
type replay struct {
	b     *bed
	in    *inputs
	model *ksir.Model
	lm    *layerModel
	root  string
	log   *spanLog
	m     map[string]float64

	posts  []ksir.Post // warm-up then the timed slice
	warm   int
	opts   ksir.Options
	batch  int
	policy ksir.FsyncPolicy
	calls  int // add calls in the timed slice

	elems   []*stream.Element
	queries int // queries of the query replay
	// total time of the timed slice at each depth
	tokenize, infer time.Duration
	depth           map[string]time.Duration
	// durable is the durable-hub depth's hub, kept open for activationPhases.
	durable *ksir.Hub
	handle  *ksir.StreamHandle
}

func (rp *replay) posts0() int { return len(rp.posts) - rp.warm }

// replayLayers runs the onion replay for a workload and returns the
// per-layer metrics it yields. addUs and queryUs are the traced measured
// phase's service time per post and per query, which the residuals compare
// the replay against.
func replayLayers(b *bed, r *recorder, addUs, queryUs float64) (map[string]float64, error) {
	lm, err := splitModel(b.model)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(b.root, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	s := b.in.spec
	rp := &replay{b: b, in: b.in, model: b.model, lm: lm, root: root, log: r.spans, m: make(map[string]float64),
		batch: s.addBatch, policy: s.fsync, depth: make(map[string]time.Duration)}
	if rp.batch == 0 {
		// serve-mixed's calls carry the posts due together: replay its mean.
		rp.batch = max(1, int(float64(r.posts.Load())/float64(max(r.addCalls.Load(), 1))+0.5))
	}
	// The slice is the posts a workload sends first, on the workload's own
	// window, after a warm-up from the end of its preload that fills it.
	n := min(s.replayPosts, len(b.in.posts)-s.preload)
	rp.warm = min(s.replayWarm, s.preload)
	rp.posts = b.in.posts[s.preload-rp.warm : s.preload+n]
	rp.opts = b.in.opts

	steps := []func() error{rp.textAndTopics, rp.engineAlone, rp.windowScoreLists, rp.addDepths,
		rp.walAlone, rp.queryDepths, rp.activationPhases, rp.connectorFeed}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	rp.selfTimes(addUs, queryUs)
	return rp.m, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// textAndTopics times tokenizing and vocabulary lookup, then topic
// inference, for every post of the slice, and keeps the elements.
func (rp *replay) textAndTopics() error {
	var tokens int
	for i, p := range rp.posts {
		e, tokenize, infer := rp.lm.element(p)
		rp.elems = append(rp.elems, e)
		if i >= rp.warm {
			rp.tokenize += tokenize
			rp.infer += infer
			for _, tc := range e.Doc.Terms {
				tokens += int(tc.Count)
			}
		}
	}
	n := float64(rp.posts0())
	rp.m["textproc.tokenize_us_per_post"] = us(rp.tokenize) / n
	rp.m["textproc.tokens_per_post"] = float64(tokens) / n
	rp.m["topicmodel.infer_us_per_post"] = us(rp.infer) / n
	return nil
}

// engineConfig is the core.Config a stream with these options runs its
// engine on (λ at its default).
func (lm *layerModel) engineConfig(opts ksir.Options) core.Config {
	return core.Config{Model: lm.tm, WindowLength: stream.Time(opts.Window / time.Second),
		Params: score.Params{Lambda: 0.5, Eta: opts.Eta}}
}

// engineAlone feeds the pre-inferred elements to core.Engine.Ingest.
func (rp *replay) engineAlone() error {
	eng, err := core.NewEngine(rp.lm.engineConfig(rp.opts))
	if err != nil {
		return err
	}
	first := rp.elems[rp.warm].TS
	var total, busy time.Duration
	var before core.Stats
	var busyBefore time.Duration
	started := false
	err = feedBuckets(rp.elems, stream.Time(rp.opts.Bucket/time.Second), func(end stream.Time, batch []*stream.Element) error {
		if !started && end >= first {
			started = true
			before = eng.Stats()
			for _, sh := range eng.ShardStats() {
				busyBefore += sh.Busy
			}
		}
		start := time.Now()
		err := eng.Ingest(end, batch)
		if started {
			total += time.Since(start)
		}
		return err
	})
	if err != nil {
		return err
	}
	after := eng.Stats()
	for _, sh := range eng.ShardStats() {
		busy += sh.Busy
	}
	busy -= busyBefore
	rp.depth["core"] = total
	n := float64(after.ElementsIngested - before.ElementsIngested)
	rp.m["rankedlist.upserts_per_post"] = float64(after.ListUpserts-before.ListUpserts) / n
	rp.m["rankedlist.deletes_per_post"] = float64(after.ListDeletes-before.ListDeletes) / n
	rp.m["core.shard_busy_share"] = ratio(float64(busy), float64(after.UpdateTime-before.UpdateTime)) / float64(eng.NumShards())
	return nil
}

// windowScoreLists drives the three layers under the engine directly, with
// a plain loop in the engine's place: the window advance, the scorer's cache
// update, and the ranked-list upserts, deletes, freezes and iteration.
func (rp *replay) windowScoreLists() error {
	cfg := rp.lm.engineConfig(rp.opts)
	win := stream.NewActiveWindow(cfg.WindowLength)
	scorer, err := score.NewScorer(cfg.Model, win, cfg.Params)
	if err != nil {
		return err
	}
	lists := make([]*rankedlist.List, cfg.Model.Z)
	for i := range lists {
		lists[i] = rankedlist.New()
	}
	first := rp.elems[rp.warm].TS
	var advance, onChange, topicScore, upsert, del, freeze time.Duration
	var buckets, expired, upserts, deletes, freezes int
	err = feedBuckets(rp.elems, stream.Time(rp.opts.Bucket/time.Second), func(end stream.Time, batch []*stream.Element) error {
		timed := end >= first
		t0 := time.Now()
		cs, err := win.Advance(end, batch)
		if err != nil {
			return err
		}
		t1 := time.Now()
		scorer.OnChange(cs)
		t2 := time.Now()
		gone := make(map[stream.ElemID]bool, len(cs.Expired))
		var dDel, dScore, dUp time.Duration
		for _, e := range cs.Expired {
			gone[e.ID] = true
			s := time.Now()
			for _, topic := range e.Topics.Topics {
				lists[topic].Delete(e.ID)
			}
			dDel += time.Since(s)
			if timed {
				deletes += len(e.Topics.Topics)
			}
		}
		for _, set := range [][]*stream.Element{cs.Inserted, cs.Updated} {
			for _, e := range set {
				if gone[e.ID] {
					continue
				}
				te, _ := win.LastRef(e.ID)
				for _, topic := range e.Topics.Topics {
					s := time.Now()
					sc := scorer.TopicScore(e, topic)
					m := time.Now()
					lists[topic].Upsert(e.ID, sc, te)
					dScore += m.Sub(s)
					dUp += time.Since(m)
				}
				if timed {
					upserts += len(e.Topics.Topics)
				}
			}
		}
		t3 := time.Now()
		for _, l := range lists {
			l.Freeze()
		}
		dFreeze := time.Since(t3)
		for _, l := range lists {
			l.Thaw()
		}
		if timed {
			buckets++
			expired += len(cs.Expired)
			advance += t1.Sub(t0)
			onChange += t2.Sub(t1)
			topicScore += dScore
			upsert += dUp
			del += dDel
			freeze += dFreeze
			freezes += len(lists)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var items int
	start := time.Now()
	for _, l := range lists {
		for it := l.Iter(); ; items++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	iter := time.Since(start)

	rp.depth["stream"] = advance
	rp.depth["score"] = onChange + topicScore
	rp.depth["rankedlist"] = upsert + del + freeze
	nb := float64(max(buckets, 1))
	rp.m["stream.advance_us_per_bucket"] = us(advance) / nb
	rp.m["stream.expired_per_bucket"] = float64(expired) / nb
	rp.m["stream.active_elements"] = float64(win.NumActive())
	rp.m["score.onchange_us_per_bucket"] = us(onChange) / nb
	rp.m["rankedlist.upsert_ns"] = float64(upsert) / float64(max(upserts, 1))
	rp.m["rankedlist.delete_ns"] = float64(del) / float64(max(deletes, 1))
	rp.m["rankedlist.freeze_ns"] = float64(freeze) / float64(max(freezes, 1))
	rp.m["rankedlist.iter_next_ns"] = float64(iter) / float64(max(items, 1))
	return nil
}

// adder is one depth of the add replay: a fresh stream behind one way of
// calling it. add reports the time that counts as the depth's own.
type adder struct {
	name  string
	add   func(posts []ksir.Post) (time.Duration, error)
	close func() error
}

func timedAdd(add func(posts []ksir.Post) (int, error)) func([]ksir.Post) (time.Duration, error) {
	return func(posts []ksir.Post) (time.Duration, error) {
		start := time.Now()
		n, err := add(posts)
		d := time.Since(start)
		if err == nil && n != len(posts) {
			err = fmt.Errorf("accepted %d of %d posts", n, len(posts))
		}
		return d, err
	}
}

func wirePosts(posts []ksir.Post) []apiv1.Post {
	out := make([]apiv1.Post, len(posts))
	for i, p := range posts {
		out[i] = apiv1.Post{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}
	}
	return out
}

// durableHub opens a hub of the workload's fsync policy in a fresh
// directory with the replay's one stream.
func (rp *replay) durableHub(name string) (*ksir.Hub, *ksir.StreamHandle, error) {
	hub, err := ksir.OpenHub(filepath.Join(rp.root, name), rp.model, ksir.PersistOptions{Fsync: rp.policy})
	if err != nil {
		return nil, nil, err
	}
	h, err := hub.Create("s", rp.model, rp.opts)
	if err != nil {
		return nil, nil, err
	}
	return hub, h, nil
}

// heapAllocs reads the runtime's count of heap objects allocated so far,
// without stopping the world.
func heapAllocs() (objects, bytes uint64) {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64(), sample[1].Value.Uint64()
}

// addDepths replays the slice at every depth, each on a stream of its own:
// Stream.AddBatch with and without a standing query, a handle on an
// in-memory hub, a handle on a durable hub, the server's handler and the
// client SDK over loopback. Each call's posts go to every depth in turn
// before the next call's, so that drift in the machine's speed and the
// garbage collector's cycles spread over the depths alike. The durable hub
// stays open for activationPhases.
func (rp *replay) addDepths() error {
	var adders []adder
	defer func() {
		for _, a := range adders {
			if a.close != nil {
				_ = a.close() // scratch streams, removed with the run's directory
			}
		}
	}()
	for _, name := range []string{"stream+sub", "ksir.Stream"} {
		st, err := ksir.New(rp.model, rp.opts)
		if err != nil {
			return err
		}
		if name == "stream+sub" {
			if _, err := st.Subscribe(context.Background(), rp.in.queries[0], rp.opts.Bucket, func(ksir.Result) {}); err != nil {
				return err
			}
		}
		adders = append(adders, adder{name: name, add: timedAdd(st.AddBatch)})
	}
	mem := ksir.NewHub()
	h, err := mem.Create("s", rp.model, rp.opts)
	if err != nil {
		return err
	}
	adders = append(adders, adder{name: "hub.memory", add: timedAdd(h.AddBatch), close: mem.CloseAll})

	if rp.durable, rp.handle, err = rp.durableHub("handle"); err != nil {
		return err
	}
	var allocs, allocBytes uint64
	add := timedAdd(rp.handle.AddBatch)
	adders = append(adders, adder{name: "hub.durable", add: func(posts []ksir.Post) (time.Duration, error) {
		o0, b0 := heapAllocs()
		d, err := add(posts)
		if posts[0].ID >= rp.posts[rp.warm].ID {
			o1, b1 := heapAllocs()
			allocs, allocBytes = allocs+o1-o0, allocBytes+b1-b0
		}
		return d, err
	}})

	apiHub, _, err := rp.durableHub("server")
	if err != nil {
		return err
	}
	api := server.NewHub(apiHub, rp.model, rp.opts)
	var bytesIn, bytesOut int
	adders = append(adders, adder{name: "server", close: apiHub.CloseAll, add: func(posts []ksir.Post) (time.Duration, error) {
		// Encoding the request is the client's work, not the server's.
		body, err := json.Marshal(wirePosts(posts))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/s/posts", bytes.NewReader(body)))
		d := time.Since(start)
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("posts route answered %d: %s", rec.Code, rec.Body.String())
		}
		if posts[0].ID >= rp.posts[rp.warm].ID {
			bytesIn += len(body)
			bytesOut += rec.Body.Len()
		}
		return d, nil
	}})

	webHub, _, err := rp.durableHub("client")
	if err != nil {
		return err
	}
	web := httptest.NewServer(server.NewHub(webHub, rp.model, rp.opts))
	cl := client.New(web.URL).Stream("s")
	adders = append(adders, adder{name: "client",
		close: func() error { web.Close(); return webHub.CloseAll() },
		add: timedAdd(func(posts []ksir.Post) (int, error) {
			return cl.Add(context.Background(), wirePosts(posts)...)
		})})

	for i := 0; i < len(rp.posts); {
		// The warm-up goes in large calls: it is not timed, and at
		// fsync=always every call of it would cost an fsync at each depth.
		j := min(i+256, rp.warm)
		if i >= rp.warm {
			j = min(i+rp.batch, len(rp.posts))
		}
		for _, a := range adders {
			d, err := a.add(rp.posts[i:j])
			if err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
			if i >= rp.warm {
				rp.depth[a.name] += d
			}
		}
		if i >= rp.warm {
			rp.calls++
		}
		i = j
	}

	n := float64(rp.posts0())
	buckets := float64(max(rp.handle.Stats().Bucket*int64(rp.posts0())/int64(len(rp.posts)), 1))
	rp.m["hub.subscribe_fire_us_per_bucket"] = max(0, us(rp.depth["stream+sub"]-rp.depth["ksir.Stream"])) / buckets
	rp.m["hub.stream_add_us_per_post"] = us(rp.depth["ksir.Stream"]) / n
	rp.m["hub.handle_add_us_per_post"] = us(rp.depth["hub.memory"]) / n
	rp.m["hub.durable_add_us_per_post"] = us(rp.depth["hub.durable"]) / n
	rp.m["runtime.allocs_per_post"] = float64(allocs) / n
	rp.m["runtime.alloc_bytes_per_post"] = float64(allocBytes) / n
	rp.m["server.bytes_in_per_op"] = float64(bytesIn) / float64(rp.calls)
	rp.m["server.bytes_out_per_op"] = float64(bytesOut) / float64(rp.calls)
	return nil
}

// walAlone appends the slice's records to a WAL of its own: the append
// (encode and write) and fsync split of persist.WAL.AppendBatchTimed, the
// cost of scanning the log back, and the fsync latency at fsync=always.
func (rp *replay) walAlone() error {
	policy, err := persist.ParseSyncPolicy(rp.policy.String())
	if err != nil {
		return err
	}
	path := filepath.Join(rp.root, "wal")
	wal, err := persist.OpenWAL(path, policy, time.Second, nil)
	if err != nil {
		return err
	}
	var appendDur, fsyncDur time.Duration
	var calls, records int
	var seq uint64
	slice := rp.posts[rp.warm:]
	for i := 0; i < len(slice); i += rp.batch {
		var recs []persist.Record
		for _, p := range slice[i:min(i+rp.batch, len(slice))] {
			seq++
			recs = append(recs, persist.Record{Seq: seq, Kind: persist.KindPost,
				Post: persist.PostRec{ID: p.ID, Time: p.Time, Text: p.Text, Refs: p.Refs}})
		}
		var bt persist.BatchTimings
		if err := wal.AppendBatchTimed(recs, &bt); err != nil {
			return err
		}
		appendDur += bt.AppendDur
		fsyncDur += bt.FsyncDur
		calls++
		records += len(recs)
	}
	size := wal.Size()
	syncs := wal.Syncs()
	if err := wal.Close(); err != nil {
		return err
	}
	start := time.Now()
	scanned := 0
	wal, err = persist.OpenWAL(path, persist.SyncAlways, time.Second, func(persist.Record) error { scanned++; return nil })
	if err != nil {
		return err
	}
	scan := time.Since(start)
	if scanned != records {
		return fmt.Errorf("WAL scan read %d of %d records", scanned, records)
	}
	var fsyncs []float64
	for i := 0; i < 50; i++ {
		seq++
		var bt persist.BatchTimings
		if err := wal.AppendBatchTimed([]persist.Record{{Seq: seq, Kind: persist.KindFlush, FlushNow: int64(seq)}}, &bt); err != nil {
			return err
		}
		fsyncs = append(fsyncs, ms(bt.FsyncDur))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	rp.depth["persist.wal"] = appendDur + fsyncDur
	rp.m["persist.wal_append_us_per_batch"] = us(appendDur) / float64(calls)
	rp.m["persist.fsyncs_per_post"] = float64(syncs) / float64(records)
	rp.m["persist.wal_bytes_per_post"] = float64(size) / float64(records)
	rp.m["persist.replay_us_per_post"] = us(scan) / float64(records)
	rp.m["persist.fsync_ms_p50"] = median(fsyncs)
	return nil
}

// queryDepths asks the replay's queries of the workload's own stream 0 as the
// measured phase left it, at every depth in turn for each query, so that
// drift in the machine's speed spreads over the depths alike:
// core.Engine.QueryContext on an engine restored from the stream's
// checkpoint, Stream.Query, StreamHandle.Query, the server's handler and the
// client SDK over loopback.
func (rp *replay) queryDepths() error {
	ctx := context.Background()
	h := rp.b.handles[0]
	if _, err := h.Checkpoint(); err != nil {
		return err
	}
	sdir := filepath.Join(rp.b.dir, h.Name())
	start := time.Now()
	ck, err := persist.LoadCheckpoint(sdir)
	if err != nil {
		return err
	}
	rp.m["persist.checkpoint_load_ms"] = ms(time.Since(start))
	start = time.Now()
	eng, err := core.Restore(rp.lm.engineConfig(rp.opts), ck.Core)
	if err != nil {
		return err
	}
	rp.m["core.restore_ms"] = ms(time.Since(start))
	start = time.Now()
	eng.ExportState()
	rp.m["core.export_ms"] = ms(time.Since(start))
	tmp := filepath.Join(rp.root, "checkpoint")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	start = time.Now()
	if err := persist.WriteCheckpoint(tmp, ck); err != nil {
		return err
	}
	rp.m["persist.checkpoint_write_ms"] = ms(time.Since(start))
	if fi, err := os.Stat(filepath.Join(tmp, persist.CheckpointFile)); err == nil {
		rp.m["persist.checkpoint_bytes"] = float64(fi.Size())
	}
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}

	api := server.NewHub(rp.b.hub, rp.model, rp.opts)
	web := httptest.NewServer(api)
	defer web.Close()
	defer api.StopSubscriptions()
	cl := client.New(web.URL).Stream(h.Name())
	var actives []*stream.Element
	eng.Window().ForEachActive(func(e *stream.Element) {
		if len(actives) < 256 {
			actives = append(actives, e)
		}
	})

	queries := rp.in.queries[:min(rp.in.spec.replayQueries, len(rp.in.queries))]
	rp.queries = len(queries)
	var evaluated, retrieved, returned, candEvals int
	var candDur time.Duration
	var mallocs uint64
	// Each call runs twice and the second run is timed: whichever depth
	// touches a query's lists and posts first would otherwise pay for
	// pulling them into the processor's caches, and the depths differ by less
	// than that.
	timed := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return err
		}
		start := time.Now()
		err := fn()
		rp.depth[name] += time.Since(start)
		return err
	}
	for i, q := range queries {
		req := apiv1.QueryRequest{K: q.K, Keywords: q.Keywords, Epsilon: q.Epsilon}
		cq := core.Query{K: q.K, Epsilon: q.Epsilon, Algorithm: core.MTTD}
		if i%2 == 1 {
			q.Algorithm, cq.Algorithm, req.Algorithm = ksir.MTTS, core.MTTS, "mtts"
		}
		_ = timed("q.infer", func() error {
			var ids []textproc.WordID
			for _, kw := range q.Keywords {
				ids = append(ids, rp.lm.ids(kw)...)
			}
			cq.X = rp.lm.inf.InferDense(ids).Truncate(8, 0.02)
			return nil
		})
		var res core.Result
		if err := timed("q.core", func() (err error) { res, err = eng.QueryContext(ctx, cq); return }); err != nil {
			return err
		}
		evaluated += res.Evaluated
		retrieved += res.Retrieved
		returned += len(res.Elements)
		if i < 32 {
			set := score.NewCandidateSet(eng.Scorer(), cq.X)
			for _, e := range res.Elements {
				set.Add(e)
			}
			start := time.Now()
			for _, e := range actives {
				set.MarginalGain(e)
			}
			candDur += time.Since(start)
			candEvals += len(actives)
		}
		if st := h.Stream(); st != nil {
			if err := timed("q.ksir.Stream", func() (err error) { _, err = st.Query(ctx, q); return }); err != nil {
				return err
			}
		}
		o0, _ := heapAllocs()
		if err := timed("q.hub", func() (err error) { _, err = h.Query(ctx, q); return }); err != nil {
			return err
		}
		o1, _ := heapAllocs()
		mallocs += (o1 - o0) / 2
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		err = timed("q.server", func() error {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/"+h.Name()+"/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("query route answered %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := timed("q.client", func() (err error) { _, err = cl.Query(ctx, req); return }); err != nil {
			return err
		}
	}
	nq := float64(len(queries))
	rp.m["topicmodel.query_infer_us"] = us(rp.depth["q.infer"]) / nq
	rp.m["core.evaluated_per_query"] = float64(evaluated) / nq
	rp.m["core.retrieved_per_query"] = float64(retrieved) / nq
	rp.m["core.results_per_evaluated"] = float64(returned) / float64(max(evaluated, 1))
	rp.m["score.candidate_eval_us_per_query"] = us(candDur) / float64(max(candEvals, 1)) * float64(evaluated) / nq
	rp.m["runtime.allocs_per_query"] = float64(mallocs) / nq
	return nil
}

// activationPhases hibernates and touches the replay's durable stream with
// the program's own span ring sampling every op, and reads the phase spans
// of each reactivation back from the ring.
func (rp *replay) activationPhases() error {
	ring := trace.Default()
	rate := ring.SampleRate()
	ring.SetSampleRate(1)
	defer ring.SetSampleRate(rate)
	phases := map[string][]float64{"backbuffer.materialize": {0}}
	h := rp.handle
	for i := 0; i < activationCycles; i++ {
		if err := h.Hibernate(); err != nil {
			return err
		}
		op := trace.Start("bench.activate", h.Name(), trace.SpanContext{})
		id := op.TraceID()
		_, err := h.Query(trace.ContextWith(context.Background(), op), rp.in.queries[i])
		op.End()
		if err != nil {
			return err
		}
		for _, tr := range ring.Snapshot(trace.Filter{}) {
			if tr.TraceID != id {
				continue
			}
			for _, sp := range tr.Spans {
				phases[sp.Name] = append(phases[sp.Name], ms(sp.Duration))
			}
		}
		// The first write after a lazy restore builds the back buffer.
		if err := h.Flush(rp.posts[len(rp.posts)-1].Time + int64(i) + 1); err != nil {
			return err
		}
	}
	for name, key := range map[string]string{"checkpoint.load": "hub.activation.checkpoint_load_ms",
		"state.restore": "hub.activation.state_restore_ms", "wal.replay": "hub.activation.wal_replay_ms",
		"backbuffer.materialize": "hub.activation.backbuffer_ms"} {
		rp.m[key] = median(phases[name])
	}
	return nil
}

// connectorFeed serves the slice as a JSONL firehose and lets a connector
// ingest it into a durable stream.
func (rp *replay) connectorFeed() error {
	if err := rp.durable.CloseAll(); err != nil {
		return err
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, p := range wirePosts(rp.posts) {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	feed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body.Bytes())
		// Hold the connection: a closed feed makes the connector reconnect
		// and read the same posts again.
		<-r.Context().Done()
	}))
	defer feed.Close()
	hub, h, err := rp.durableHub("connector")
	if err != nil {
		return err
	}
	defer hub.CloseAll()
	conn, err := connector.New(connector.Config{URL: feed.URL, Format: connector.JSONL, Buffer: len(rp.posts) + 1}, h)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- conn.Run(ctx) }()
	for conn.Stats().Ingested < int64(len(rp.posts)) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	total := time.Since(start)
	st := conn.Stats()
	cancel()
	<-done
	if st.Ingested != int64(len(rp.posts)) || st.Rejected+st.Dropped+st.Malformed != 0 {
		return fmt.Errorf("connector ingested %d of %d posts (%+v)", st.Ingested, len(rp.posts), st)
	}
	rp.m["connector.ingest_us_per_post"] = us(total) / float64(len(rp.posts))
	return nil
}

// selfTimes writes the replay as two stitched span trees, one for adds and
// one for queries, reads each layer's self time back from them, and compares
// the outermost depth a workload uses with what its measured phase saw.
func (rp *replay) selfTimes(addUs, queryUs float64) {
	now := time.Now()
	tree := func(trace string, chain []string, leaves map[string][]string) {
		parent := 0
		for _, name := range chain {
			parent = rp.log.child(parent, name, trace, now, rp.depth[name])
			for _, leaf := range leaves[name] {
				rp.log.child(parent, leaf, trace, now, rp.depth[leaf])
			}
		}
	}
	rp.depth["textproc"], rp.depth["topicmodel"] = rp.tokenize, rp.infer
	tree("replay.add", []string{"client", "server", "hub.durable", "hub.memory", "ksir.Stream", "core"},
		map[string][]string{"hub.durable": {"persist.wal"}, "ksir.Stream": {"textproc", "topicmodel"},
			"core": {"stream", "score", "rankedlist"}})
	tree("replay.query", []string{"q.client", "q.server", "q.hub", "q.ksir.Stream", "q.core"},
		map[string][]string{"q.ksir.Stream": {"q.infer"}})
	// The measured phase's spans have no children and other names, so the
	// whole log can go through.
	rp.log.mu.Lock()
	self := selfTimes(rp.log.spans)
	rp.log.mu.Unlock()

	n, calls, nq := float64(rp.posts0()), float64(rp.calls), float64(rp.queries)
	rp.m["hub.pipeline_self_us_per_post"] = us(self["hub.memory"]) / n
	rp.m["server.add_self_us"] = us(self["server"]) / calls
	rp.m["client.add_self_us"] = us(self["client"]) / calls
	rp.m["server.query_self_us"] = us(self["q.server"]) / nq
	rp.m["client.query_self_us"] = us(self["q.client"]) / nq

	top, qtop := "hub.durable", "q.hub"
	if rp.in.spec.name == "serve-mixed" {
		top, qtop = "client", "q.client"
	}
	rp.m["bench.add_residual_pct"] = 100 * ratio(addUs-us(rp.depth[top])/n, addUs)
	rp.m["bench.query_residual_pct"] = 100 * ratio(queryUs-us(rp.depth[qtop])/nq, queryUs)
}
