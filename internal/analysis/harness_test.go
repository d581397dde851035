package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture harness runs one analyzer over a miniature package tree
// under testdata/src/<importpath>/ and checks its diagnostics against
// `// want "regex"` (or backquoted) comments on the offending lines —
// the analysistest convention, rebuilt on the stdlib so the module
// stays dependency-free. Fixture-local imports resolve to sibling
// fixture packages; everything else comes from the source importer.

func init() {
	// The source importer type-checks stdlib from GOROOT sources; keep
	// cgo out of the picture (same as cmd/leastvet).
	build.Default.CgoEnabled = false
}

// A want comment holds one or more expectation regexes, backquoted or
// double-quoted: // want `first` `second`
var (
	wantLineRe = regexp.MustCompile(`// want (.+)`)
	wantTokRe  = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

// fixtureImporter resolves fixture-local import paths by directory and
// records "Deprecated:" markers from every package it loads.
type fixtureImporter struct {
	fset       *token.FileSet
	root       string
	std        types.Importer
	cache      map[string]*types.Package
	deprecated map[string]bool
}

func newFixtureImporter(t *testing.T, fset *token.FileSet) *fixtureImporter {
	t.Helper()
	return &fixtureImporter{
		fset:       fset,
		root:       filepath.Join("testdata", "src"),
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*types.Package),
		deprecated: make(map[string]bool),
	}
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return im.std.Import(path)
	}
	if pkg, ok := im.cache[path]; ok {
		return pkg, nil
	}
	files, err := im.parseFixtureDir(path, dir)
	if err != nil {
		return nil, err
	}
	cfg := types.Config{Importer: im}
	pkg, err := cfg.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", path, err)
	}
	im.cache[path] = pkg
	return pkg, nil
}

func (im *fixtureImporter) parseFixtureDir(path, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && IsDeprecated(fd.Doc) {
				im.deprecated[DeclKey(path, fd)] = true
			}
		}
	}
	return files, nil
}

// runFixture type-checks testdata/src/<path>, runs a over it, and
// matches diagnostics against the fixture's want comments. mutate, if
// non-nil, adjusts the Pass before the run (the wireshape fixture
// injects its allowlist and golden manifest).
func runFixture(t *testing.T, a *Analyzer, path string, mutate func(*Pass)) {
	t.Helper()
	fset := token.NewFileSet()
	im := newFixtureImporter(t, fset)
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	files, err := im.parseFixtureDir(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	cfg := types.Config{Importer: im}
	pkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", path, err)
	}
	pass := &Pass{
		Fset:         fset,
		Files:        files,
		Pkg:          pkg,
		Info:         info,
		Deprecated:   im.deprecated,
		WireComputed: make(map[string]string),
	}
	if mutate != nil {
		mutate(pass)
	}
	diags := RunAnalyzer(a, pass)

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" → expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := wantLineRe.FindStringSubmatch(c.Text)
				if line == nil {
					continue
				}
				for _, m := range wantTokRe.FindAllStringSubmatch(line[1], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), expr, err)
					}
					key := posKey(fset.Position(c.Pos()))
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}

	for _, d := range diags {
		key := posKey(d.Pos)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.re)
			}
		}
	}
}

func posKey(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "internal/mat", nil)
}

func TestAtomicCounterFixture(t *testing.T) {
	runFixture(t, AtomicCounter, "atomiccounter", nil)
}

func TestTypedErrFixture(t *testing.T) {
	runFixture(t, TypedErr, "internal/serve", nil)
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, CtxFlow, "examples/app", nil)
}

func TestPoolAliasFixture(t *testing.T) {
	runFixture(t, PoolAlias, "poolalias", nil)
}

func TestWireShapeFixture(t *testing.T) {
	manifest := make(map[string]string)
	b, err := os.ReadFile(filepath.Join("testdata", "src", "wireshape", "wireshape.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	runFixture(t, WireShape, "wireshape", func(pass *Pass) {
		pass.WireTypes = map[string][]string{
			"wireshape": {"Status", "Stable", "Fresh", "Gone"},
		}
		pass.WireManifest = manifest
	})
}

// TestAppliesGates pins each analyzer's package scoping: the gates are
// data, and a typo there silently turns a check off.
func TestAppliesGates(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{Determinism, "repro/internal/mat", true},
		{Determinism, "repro/internal/sparse", true},
		{Determinism, "repro/internal/loss", true},
		{Determinism, "repro/internal/parallel", true},
		{Determinism, "repro/internal/constraint", true},
		{Determinism, "repro/internal/serve", false},
		{Determinism, "repro", false},
		{TypedErr, "repro/internal/serve", true},
		{TypedErr, "repro/internal/coord", true},
		{TypedErr, "repro/internal/core", false},
		{CtxFlow, "repro/internal/experiments", false},
		{CtxFlow, "repro/cmd/leastd", true},
		{CtxFlow, "repro/internal/serve", true},
		{WireShape, "repro/internal/serve", true},
		{WireShape, "repro/internal/journal", true},
		{WireShape, "repro/internal/coord", true},
		{WireShape, "repro/internal/mat", false},
	}
	for _, c := range cases {
		if got := c.a.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	for _, a := range All() {
		if a == AtomicCounter || a == PoolAlias {
			if a.Applies != nil {
				t.Errorf("%s should apply everywhere (nil Applies)", a.Name)
			}
		}
	}
}

// TestServingScope pins ctxflow's rule-2 scope.
func TestServingScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/serve":     true,
		"repro/internal/booking":   true,
		"repro/cmd/leastd":         true,
		"repro/examples/genes":     true,
		"repro/internal/movielens": false, // offline catalog artifact (DESIGN.md §12 blind spot)
		"repro/internal/core":      false,
	} {
		if got := servingScope(path); got != want {
			t.Errorf("servingScope(%q) = %v, want %v", path, got, want)
		}
	}
}
