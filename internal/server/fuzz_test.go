package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ksir "github.com/social-streams/ksir"
	apiv1 "github.com/social-streams/ksir/api/v1"
)

// FuzzQueryBody throws arbitrary bytes at POST /v1/streams/default/query:
// the route must never panic and never answer 5xx; whatever it rejects it
// rejects as 400 with a structured error, and whatever it accepts went
// through core.Query.validate (the engine refuses anything else, which maps
// to 400) and came back as a well-formed answer — at most k posts, a finite
// non-negative score, no more elements evaluated than are active.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"k":3,"keywords":["goal","striker"]}`,
		`{"k":2,"vector":{"0":0.7,"1":0.3},"algorithm":"mtts","epsilon":0.25,"explain":true}`,
		`{"k":2,"vector":{}}`,
		`{"k":2,"vector":{"0":NaN}}`,
		`{"k":2,"vector":{"0":-1,"1":2}}`,
		`{"k":2,"vector":{"0":1.7e308,"1":1.7e308}}`,
		`{"k":2,"vector":{"7":1}}`,
		`{"k":0,"keywords":["goal"]}`,
		`{"k":-4,"keywords":["goal"]}`,
		`{"k":1e9,"keywords":["goal"],"algorithm":"topk"}`,
		`{"k":3,"keywords":["goal"],"epsilon":1}`,
		`{"k":3,"keywords":["goal"],"epsilon":-0.5}`,
		`{"k":3,"keywords":["goal"],"epsilon":1e-12,"algorithm":"mtts"}`,
		`{"k":3,"keywords":["goal"],"epsilon":1e-300}`,
		`{"k":3,"keywords":["goal"],"algorithm":"celf"}`,
		`{"k":3,"keywords":["zzzz"]}`,
		`{"k":3,"keywords":["` + strings.Repeat("goal dunk ", 1<<20/10) + `"]}`,
		`{"k":3`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	st := testStream(f)
	srv := New(st)
	for i := 0; i < 12; i++ {
		text := "goal striker derby"
		if i%2 == 1 {
			text = "dunk rebound court"
		}
		if err := st.Add(ksir.Post{ID: int64(i + 1), Time: int64(90 * (i + 1)), Text: text}); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Flush(2000); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/default/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var req apiv1.QueryRequest
			if err := json.Unmarshal(body, &req); err != nil {
				// The handler reads one JSON value off the stream and ignores
				// what follows it; decode the same way.
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					t.Fatalf("accepted a body that does not decode: %v", err)
				}
			}
			var resp apiv1.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable answer: %v", err)
			}
			if req.K <= 0 || len(resp.Posts) > req.K {
				t.Fatalf("k = %d answered with %d posts", req.K, len(resp.Posts))
			}
			if req.Epsilon != 0 && (req.Epsilon < 1e-3 || req.Epsilon >= 1) {
				t.Fatalf("accepted epsilon %v", req.Epsilon)
			}
			if math.IsNaN(resp.Score) || math.IsInf(resp.Score, 0) || resp.Score < 0 {
				t.Fatalf("score %v", resp.Score)
			}
			if resp.Evaluated > resp.Active {
				t.Fatalf("evaluated %d of %d active elements", resp.Evaluated, resp.Active)
			}
		case http.StatusBadRequest:
			var e apiv1.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Err.Code == "" {
				t.Fatalf("400 without a structured error: %q", rec.Body.String())
			}
		default:
			t.Fatalf("query route answered %d: %s", rec.Code, rec.Body.String())
		}
	})
}
