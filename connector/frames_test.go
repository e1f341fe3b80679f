package connector

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/social-streams/ksir/client"
	"github.com/social-streams/ksir/connector/backoff"
	"github.com/social-streams/ksir/connector/frame"
)

// sseCap is the client SDK's event cap (client.maxEventBytes), used for
// both consumers here so one oversized line is oversized for both.
const sseCap = 1 << 22

// sseFrames is the one table of wire frames both SSE consumers — this
// package's reader and the client SDK's subscription — are held to.
// Payloads are JSON so the SDK can decode them. skipped counts the events
// over the cap — the connector counts them and carries on, the SDK stops at
// the first, having delivered the ahead events before it.
var sseFrames = []struct {
	name    string
	wire    string
	want    []Event
	skipped int
	ahead   int
}{
	{name: "CRLF line ends",
		wire: "event: refresh\r\nid: 3\r\ndata: {\"bucket\":3}\r\n\r\n",
		want: []Event{{ID: "3", Type: "refresh", Data: []byte(`{"bucket":3}`)}}},
	{name: "multi-line data",
		wire: "event: refresh\nid: 4\ndata: {\"bucket\":\ndata: 4}\n\n",
		want: []Event{{ID: "4", Type: "refresh", Data: []byte("{\"bucket\":\n4}")}}},
	{name: "leading-space payload: one space is the separator, the rest is data",
		wire: "id: 5\ndata:  {\"bucket\":5}\n\nid:6\ndata:{\"bucket\":6}\n\n",
		want: []Event{{ID: "5", Data: []byte(` {"bucket":5}`)}, {ID: "6", Data: []byte(`{"bucket":6}`)}}},
	{name: "comment heartbeats",
		wire: ": ping\n\n: ping\nevent: refresh\nid: 7\n: mid-event\ndata: {\"bucket\":7}\n\n: ping\n\n",
		want: []Event{{ID: "7", Type: "refresh", Data: []byte(`{"bucket":7}`)}}},
	{name: "id-less event after an id keeps the id",
		wire: "event: refresh\nid: 8\ndata: {\"bucket\":8}\n\nevent: closed\ndata: {}\n\n",
		want: []Event{{ID: "8", Type: "refresh", Data: []byte(`{"bucket":8}`)}, {ID: "8", Type: "closed", Data: []byte(`{}`)}}},
	{name: "oversized line",
		wire: "event: refresh\nid: 9\ndata: {\"bucket\":9}\n\n" +
			"event: refresh\nid: 10\ndata: \"" + strings.Repeat("a", sseCap) + "\"\n\n" +
			"event: refresh\nid: 11\ndata: {\"bucket\":11}\n\n",
		want:    []Event{{ID: "9", Type: "refresh", Data: []byte(`{"bucket":9}`)}, {ID: "11", Type: "refresh", Data: []byte(`{"bucket":11}`)}},
		skipped: 1, ahead: 1},
}

func TestSSEFramesConnectorReader(t *testing.T) {
	for _, tc := range sseFrames {
		t.Run(tc.name, func(t *testing.T) {
			got, oversized, malformed := collectEvents(t, tc.wire, sseCap)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("events = %q, want %q", got, tc.want)
			}
			if oversized != tc.skipped || malformed != 0 {
				t.Errorf("oversized = %d malformed = %d, want %d and 0", oversized, malformed, tc.skipped)
			}
		})
	}
}

func TestSSEFramesClientSubscription(t *testing.T) {
	for _, tc := range sseFrames {
		t.Run(tc.name, func(t *testing.T) {
			var connects atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				connects.Add(1)
				w.Header().Set("Content-Type", "text/event-stream")
				_, _ = io.WriteString(w, tc.wire)
			}))
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			// What the SDK should deliver: every event up to the first one
			// over the cap, its id parsed and its payload decoded.
			events := tc.want
			if tc.skipped > 0 {
				events = events[:tc.ahead]
			}
			var want []client.Event
			for _, ev := range events {
				ce := client.Event{Type: ev.Type}
				ce.Bucket, _ = strconv.ParseInt(ev.ID, 10, 64)
				if err := json.Unmarshal(ev.Data, &ce.Result); err != nil {
					t.Fatal(err)
				}
				want = append(want, ce)
			}
			check := func(what string, got []client.Event, err error) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s delivered %+v, want %+v", what, got, want)
				}
				if tc.skipped > 0 != errors.Is(err, frame.ErrOversized) || (tc.skipped == 0 && err != nil) {
					t.Errorf("%s returned %v (oversized events: %d)", what, err, tc.skipped)
				}
			}
			s := client.New(srv.URL).Stream("s")
			req := client.SubscribeRequest{K: 1, Keywords: []string{"x"}}

			var got []client.Event
			err := s.Subscribe(ctx, req, func(ev client.Event) error {
				got = append(got, ev)
				return nil
			})
			check("Subscribe", got, err)

			// SubscribeResume ends on the stream's "closed" event or on the
			// oversized refresh; it must not reconnect into the latter.
			if last := tc.want[len(tc.want)-1]; last.Type != "closed" && tc.skipped == 0 {
				return
			}
			connects.Store(0)
			got = nil
			err = s.SubscribeResume(ctx, req, backoff.Policy{Initial: time.Millisecond, Exact: true}, func(ev client.Event) error {
				got = append(got, ev)
				return nil
			})
			check("SubscribeResume", got, err)
			if n := connects.Load(); n != 1 {
				t.Errorf("SubscribeResume connected %d times, want 1", n)
			}
		})
	}
}
