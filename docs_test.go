package ksir_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	ksir "github.com/social-streams/ksir"
	_ "github.com/social-streams/ksir/connector" // registers ksir_connector_*
	"github.com/social-streams/ksir/internal/server"
)

// docFiles are the documents whose references the docs tests hold to the
// code.
var docFiles = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// Every performance number the docs cite is written `metric`@`workload`
// and must name something benchmark/ reports: a metric and a workload
// declared in BENCHMARK.json (read here, never written). The second
// harness — ksir-bench's service experiments, their BENCH_<x>.json files,
// ksir-trajectory — is gone, and a doc that still points at it points at
// nothing; README and the verify skill once cited a BENCH_concurrent.json
// that was not in the repository. testdata/docs_gone.txt lists it with
// every other name retired with deleted code. Likewise every ksir_* metric
// family the docs name must be in the process's /metrics exposition.
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
	gone := goneNames(t)
	families := exposedFamilies(t)
	// A family is named whole, as one of a histogram's series, or as a
	// prefix written with a trailing _ or *.
	familyRef := regexp.MustCompile(`ksir_[a-z_]+\*?`)
	known := func(ref string) bool {
		if prefix, ok := strings.CutSuffix(ref, "*"); ok || strings.HasSuffix(ref, "_") {
			for fam := range families {
				if strings.HasPrefix(fam, prefix) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(ref, suffix); ok && families[base] {
				return true
			}
		}
		return false
	}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllSubmatch(text, -1) {
			if metric, workload := string(m[1]), string(m[2]); !metrics[metric] || !workloads[workload] {
				t.Errorf("%s cites %s@%s: BENCHMARK.json has metric=%v workload=%v", doc, metric, workload, metrics[metric], workloads[workload])
			}
		}
		for _, ref := range familyRef.FindAllString(string(text), -1) {
			if !known(ref) {
				t.Errorf("%s names metric family %s, which /metrics does not expose", doc, ref)
			}
		}
		for _, re := range gone {
			for _, m := range re.FindAll(text, -1) {
				t.Errorf("%s mentions %q, which no longer exists", doc, m)
			}
		}
	}
}

// Every test, fuzz target and benchmark the docs name must be defined in a
// _test.go file of the repository, or be the prefix of one — the docs
// write run patterns such as BenchmarkQuery(MTTS|MTTD|CELF) or a -run
// prefix. A deleted test therefore needs no entry in testdata/docs_gone.txt.
func TestDocsNameLiveTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no test definitions")
	}
	ref := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ref.FindAllString(string(text), -1) {
			if !slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) }) {
				t.Errorf("%s names %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// Every identifier of the root package the docs name must be declared in
// its non-test files: each ksir.Name, and each Type.Member — a field or a
// method — of an exported root type. A deleted or renamed API therefore
// cannot live on in the docs; testdata/docs_gone.txt keeps the retired
// names out even where they no longer parse as either form.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	decls := rootDecls(t)
	qualified := regexp.MustCompile(`\bksir\.([A-Z]\w*)`)
	// A Type.Member not qualified by another package (persist.Meta.Lambda
	// names persist's Meta, not a root type).
	member := regexp.MustCompile(`(?m)(?:^|[^\w.])(?:ksir\.)?([A-Z]\w*)\.(\w+)`)
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range qualified.FindAllSubmatch(text, -1) {
			if _, ok := decls[string(m[1])]; !ok {
				t.Errorf("%s names ksir.%s, which the root package does not declare", doc, m[1])
			}
		}
		for _, m := range member.FindAllSubmatch(text, -1) {
			typ, name := string(m[1]), string(m[2])
			if members, ok := decls[typ]; ok && members != nil && !members[name] {
				t.Errorf("%s names %s.%s, which %s does not declare", doc, typ, name, typ)
			}
		}
	}
}

// Every repository path the docs write in backticks — a span whose first
// segment is a top-level directory of the repository, such as
// `internal/stream/record.go` — must name a file or directory that
// exists, and every file.go:NN they cite, backticked or not, must name a
// Go file of the repository at least NN lines long (a bare file name may
// be any of the repository's files of that name).
func TestDocsNameLivePaths(t *testing.T) {
	top := map[string]bool{}
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			top[e.Name()] = true
		}
	}
	lines := map[string]int{} // every Go file's line count, by path
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		lines[filepath.ToSlash(path)] = strings.Count(string(src), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\\s]+)`")
	lineRef := regexp.MustCompile(`([\w./-]*\w\.go):(\d+)`)
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllSubmatch(text, -1) {
			path, _, _ := strings.Cut(string(m[1]), ":")
			first, _, nested := strings.Cut(path, "/")
			if !nested || !top[first] {
				continue
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which is not in the repository", doc, m[1])
			}
		}
		for _, m := range lineRef.FindAllSubmatch(text, -1) {
			file, line := string(m[1]), 0
			fmt.Sscan(string(m[2]), &line)
			found := false
			for path, n := range lines {
				if (path == file || !strings.Contains(file, "/") && filepath.Base(path) == file) && line >= 1 && line <= n {
					found = true
				}
			}
			if !found {
				t.Errorf("%s cites %s:%d, which names no repository Go file that long", doc, file, line)
			}
		}
	}
}

// rootDecls reads the root package's non-test files and maps every
// top-level name it declares to its members: the fields and methods of a
// struct type, nil for anything else.
func rootDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	add := func(typ, name string) {
		if decls[typ] == nil {
			decls[typ] = map[string]bool{}
		}
		decls[typ][name] = true
	}
	for _, f := range pkgs["ksir"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[d.Name.Name] = nil
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				add(recv.(*ast.Ident).Name, d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if _, ok := decls[spec.Name.Name]; !ok {
							decls[spec.Name.Name] = nil
						}
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								add(spec.Name.Name, name.Name)
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							decls[name.Name] = nil
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no root package declarations")
	}
	return decls
}

// exposedFamilies scrapes the /metrics handler of a server over an empty
// hub — every family registered by this process's packages plus the
// server's scrape-time hub families — and returns the family names.
func exposedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	rec := httptest.NewRecorder()
	server.NewHub(ksir.NewHub(), nil, ksir.Options{}).MetricsHandler().
		ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	families := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}
	if len(families) == 0 {
		t.Fatalf("/metrics exposed no families:\n%s", rec.Body.String())
	}
	return families
}

// goneNames compiles the retired-name patterns of testdata/docs_gone.txt.
func goneNames(t *testing.T) []*regexp.Regexp {
	t.Helper()
	raw, err := os.ReadFile("testdata/docs_gone.txt")
	if err != nil {
		t.Fatal(err)
	}
	var gone []*regexp.Regexp
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		gone = append(gone, regexp.MustCompile(line))
	}
	return gone
}
