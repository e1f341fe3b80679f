// Package ksir implements Semantic and Influence aware k-Representative
// (k-SIR) queries over social streams, reproducing:
//
//	Yanhao Wang, Yuchen Li, Kian-Lee Tan.
//	"Semantic and Influence aware k-Representative Queries over Social
//	Streams." EDBT 2019, pp. 181–192.
//
// A k-SIR query retrieves, from the elements active in a sliding window
// over a social stream, a set of k elements that together maximize a
// monotone submodular representativeness score: a weighted word-coverage
// semantic score plus a topic-aware, time-critical influence score, both
// computed against a probabilistic topic model and weighted by the user's
// query vector over topics.
//
// The package exposes the full pipeline:
//
//	model, err := ksir.TrainModel(texts, ksir.WithTopics(50))
//	st, err := ksir.New(model, ksir.Options{Window: 24 * time.Hour})
//	defer st.Close()
//	st.Add(ksir.Post{ID: 1, Time: now, Text: "...", Refs: []int64{...}})
//	res, err := st.Query(ctx, ksir.Query{K: 10, Keywords: []string{"soccer"}})
//
// Every Stream method is safe from any goroutine: writes are committed by
// their callers under the stream's lock, concurrent ones coalesced into
// shared commits, and a stream runs no goroutine of its own.
//
// Queries are served in real time by the MTTS ((1/2 − ε)-approximate) and
// MTTD ((1 − 1/e − ε)-approximate) algorithms over per-topic ranked lists;
// see internal/core for the algorithms and DESIGN.md for the system map.
//
// For serving many tenants, Hub registers named streams, durable under a
// data directory when opened with OpenHub; errors.go defines
// the typed error taxonomy (errors.Is against ksir.Err*); Subscribe turns
// a query into a standing query refreshed at bucket boundaries. The
// api/v1 and client packages expose all of it over a versioned REST + SSE
// wire API with a Go SDK.
package ksir
