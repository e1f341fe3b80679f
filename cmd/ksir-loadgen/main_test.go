package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	apiv1 "github.com/social-streams/ksir/api/v1"
)

// A recorded stream is ksir-gen output, /v1 posts one per line: they load
// as they are, blank lines are skipped, and a bad line is named by path
// and line number.
func TestReadRecorded(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	body := `{"id":1,"time":60,"text":"late goal wins the derby"}

{"id":2,"time":61,"text":"derby goal","refs":[1]}
`
	if err := os.WriteFile(good, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readRecorded(good)
	if err != nil {
		t.Fatal(err)
	}
	want := []apiv1.Post{
		{ID: 1, Time: 60, Text: "late goal wins the derby"},
		{ID: 2, Time: 61, Text: "derby goal", Refs: []int64{1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(body+"{\"id\":3,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecorded(bad); err == nil || !strings.Contains(err.Error(), bad+":4:") {
		t.Fatalf("bad line: err = %v, want one naming %s:4", err, bad)
	}
}
