package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"github.com/social-streams/ksir/connector"
	"github.com/social-streams/ksir/internal/dataset"
)

// Every line ksir-gen writes is a post the connector's JSONL format (and
// so the posts route and ksir-loadgen -in) takes as it is.
func TestGeneratedLinesDecodeAsPosts(t *testing.T) {
	ds, err := dataset.Generate(dataset.RedditLike(300), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	i, refs := 0, 0
	for sc.Scan() {
		p, err := connector.DecodePost(connector.Event{Data: sc.Bytes()})
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		e := ds.Elements[i]
		if p.ID != int64(e.ID) || p.Time != int64(e.TS) || len(p.Refs) != len(e.Refs) {
			t.Fatalf("line %d: decoded %+v, element %+v", i+1, p, e)
		}
		for j, r := range e.Refs {
			if p.Refs[j] != int64(r) {
				t.Fatalf("line %d: refs %v, want %v", i+1, p.Refs, e.Refs)
			}
		}
		if n := len(strings.Fields(p.Text)); n != len(ds.Docs[i]) {
			t.Fatalf("line %d: %d words in %q, want %d", i+1, n, p.Text, len(ds.Docs[i]))
		}
		refs += len(p.Refs)
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(ds.Elements) || refs == 0 {
		t.Fatalf("decoded %d lines with %d refs, want %d lines and some refs", i, refs, len(ds.Elements))
	}
}
