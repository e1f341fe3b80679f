package ksir_test

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// Every performance number the docs cite is written `metric`@`workload`
// and must name something benchmark/ reports: a metric and a workload
// declared in BENCHMARK.json (read here, never written). The second
// harness — ksir-bench's service experiments, their BENCH_<x>.json files,
// ksir-trajectory — is gone, and a doc that still points at it points at
// nothing; README and the verify skill once cited a BENCH_concurrent.json
// that was not in the repository.
func TestDocsNameLiveMetrics(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = true
	}
	if len(workloads) == 0 || len(metrics) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads and %d metrics", len(workloads), len(metrics))
	}

	// Anything around an @ is taken as a citation, so a brace or wildcard
	// shorthand fails as an unknown metric instead of going unchecked.
	citation := regexp.MustCompile("([^\\s`(@]+)`?@`?([A-Za-z0-9_-]+)")
	gone := []*regexp.Regexp{
		regexp.MustCompile(`BENCH_\S*`),
		regexp.MustCompile(`ksir-trajectory`),
		regexp.MustCompile(`-exp\s+(persist|engine|ingest|tenancy|concurrent)\b`),
		regexp.MustCompile("(?m)(^|[\\s`(])-(json|short|baseline|ingest-baseline|tenancy-baseline|regress-factor|rates|cell-secs|streams)\\b"),
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllSubmatch(text, -1) {
			if metric, workload := string(m[1]), string(m[2]); !metrics[metric] || !workloads[workload] {
				t.Errorf("%s cites %s@%s: BENCHMARK.json has metric=%v workload=%v", doc, metric, workload, metrics[metric], workloads[workload])
			}
		}
		for _, re := range gone {
			for _, m := range re.FindAll(text, -1) {
				t.Errorf("%s mentions %q, which no longer exists", doc, m)
			}
		}
	}
}
