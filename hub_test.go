package ksir

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHubCreateGetListClose(t *testing.T) {
	m := trainTestModel(t)
	h := NewHub()

	soccer, err := h.Create("soccer", m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if soccer.Name() != "soccer" {
		t.Errorf("name = %q", soccer.Name())
	}
	if _, err := h.Create("basket", m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2}); err != nil {
		t.Fatal(err)
	}

	// Duplicate names and invalid names are typed errors.
	if _, err := h.Create("soccer", m, Options{}); !errors.Is(err, ErrStreamExists) {
		t.Errorf("duplicate create err = %v, want ErrStreamExists", err)
	}
	for _, bad := range []string{"", "a/b", "a b", "x\ty", "x\ry", "x\ny", ".", ".."} {
		if _, err := h.Create(bad, m, Options{}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("name %q err = %v, want ErrBadOptions", bad, err)
		}
	}

	got, err := h.Get("soccer")
	if err != nil || got != soccer {
		t.Fatalf("Get: %v %v", got, err)
	}
	if _, err := h.Get("nope"); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("unknown get err = %v, want ErrUnknownStream", err)
	}

	names := h.List()
	if len(names) != 2 || names[0] != "basket" || names[1] != "soccer" {
		t.Errorf("List = %v", names)
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}

	if err := h.Close("basket"); err != nil {
		t.Fatal(err)
	}
	if err := h.Close("basket"); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("double close err = %v, want ErrUnknownStream", err)
	}
	if h.Len() != 1 {
		t.Errorf("Len after close = %d", h.Len())
	}
}

func TestHubClosedHandleRejectsOperations(t *testing.T) {
	m := trainTestModel(t)
	h := NewHub()
	hs, err := h.Create("s", m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Add(Post{ID: 1, Time: 10, Text: "goal"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close("s"); err != nil {
		t.Fatal(err)
	}
	if err := hs.Add(Post{ID: 2, Time: 20, Text: "goal"}); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Add on closed err = %v, want ErrStreamClosed", err)
	}
	if err := hs.Flush(100); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Flush on closed err = %v, want ErrStreamClosed", err)
	}
	if _, err := hs.Query(context.Background(), Query{K: 1, Keywords: []string{"goal"}}); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Query on closed err = %v, want ErrStreamClosed", err)
	}
	if _, err := hs.AddBatch([]Post{{ID: 3, Time: 30, Text: "goal"}}); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("AddBatch on closed err = %v, want ErrStreamClosed", err)
	}
	if _, err := hs.Subscribe(context.Background(), Query{K: 1, Keywords: []string{"goal"}}, time.Hour, func(Result) {}); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Subscribe on closed err = %v, want ErrStreamClosed", err)
	}
}

// The Hub's reason to exist: many goroutines ingest into and query several
// streams at once with no caller-side locking, and every observation stays
// consistent (run under -race).
func TestHubConcurrentMultiStream(t *testing.T) {
	m := trainTestModel(t)
	h := NewHub()
	const streams = 3
	handles := make([]*Stream, streams)
	for i := range handles {
		var err error
		handles[i], err = h.Create(fmt.Sprintf("s%d", i), m,
			Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, streams*4)
	// Two writers per stream — the stream must serialize them; the posts
	// interleave but each batch is internally ordered (same timestamps are
	// allowed, so two writers at the same clock cannot go out of order).
	for si, hs := range handles {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(si, w int, hs *Stream) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					ts := int64(1 + i*10)
					id := int64(si*100000 + w*10000 + i + 1)
					text := "goal striker league"
					if i%2 == 1 {
						text = "dunk rebound playoffs"
					}
					err := hs.Add(Post{ID: id, Time: ts, Text: text})
					// A concurrent writer may already have advanced the
					// stream clock past ts: that out-of-order rejection is
					// expected and must be typed; anything else is a bug.
					if err != nil && !errors.Is(err, ErrOutOfOrder) {
						errs <- fmt.Errorf("stream %d writer %d: %v", si, w, err)
						return
					}
				}
				if err := hs.Flush(700); err != nil && !errors.Is(err, ErrOutOfOrder) {
					errs <- fmt.Errorf("stream %d writer %d flush: %v", si, w, err)
				}
			}(si, w, hs)
		}
		// Two readers per stream, concurrent with the writers.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(si int, hs *Stream) {
				defer wg.Done()
				var last int64 = -1
				for i := 0; i < 40; i++ {
					res, err := hs.Query(context.Background(), Query{K: 3, Keywords: []string{"goal"}})
					if err != nil {
						errs <- fmt.Errorf("stream %d query: %v", si, err)
						return
					}
					if res.Bucket < last {
						errs <- fmt.Errorf("stream %d bucket went backwards %d -> %d", si, last, res.Bucket)
						return
					}
					last = res.Bucket
					_ = hs.Stats()
				}
			}(si, hs)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every stream ingested something and answers queries.
	for i, hs := range handles {
		if err := hs.Flush(700); err != nil && !errors.Is(err, ErrOutOfOrder) {
			t.Fatal(err)
		}
		if hs.Stats().Active == 0 {
			t.Errorf("stream %d empty after concurrent ingest", i)
		}
	}
}

func TestStreamAddBatch(t *testing.T) {
	m := trainTestModel(t)
	h := NewHub()
	hs, err := h.Create("b", m, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := hs.AddBatch([]Post{
		{ID: 1, Time: 10, Text: "goal"},
		{ID: 2, Time: 20, Text: "dunk"},
		{ID: 3, Time: 5, Text: "late"}, // out of order: rejected
		{ID: 4, Time: 30, Text: "never examined"},
	})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	if n != 2 {
		t.Errorf("accepted = %d, want 2", n)
	}
	if err := hs.Flush(60); err != nil {
		t.Fatal(err)
	}
	if got := hs.Stats().Active; got != 2 {
		t.Errorf("active = %d, want 2", got)
	}
}
