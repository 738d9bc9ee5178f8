// Package analysistest is the testdata-driven harness for odinvet
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest: each
// analyzer package keeps a testdata/src tree of small packages whose
// source lines carry `// want "regex"` comments naming the diagnostics the
// analyzer must produce there. The harness typechecks the packages with
// the internal/analysis loader — testdata imports resolve under src first,
// then under the shared stubs of internal/analysis/testdata/src, then as
// module paths of the enclosing go.mod, so a test package may use the real
// fabric (odinhpc/internal/comm) — runs the analyzer as the whole registry
// (with //lint:allow suppression and the stale-directive check active, so
// allow-directives are testable), and fails the test on any missing,
// surplus, or mismatched diagnostic.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"odinhpc/internal/analysis"
)

// sharedDir is where the stubs of framework packages that several
// analyzers' tests load live, relative to the module root: one stub per
// package, carrying the want lines and allows of every analyzer that keys on
// it, so an API change edits one stub.
const sharedDir = "internal/analysis/testdata"

// Run loads each named package from dir/src and checks a's diagnostics
// against the `// want` expectations in their sources.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	run(t, dir, []*analysis.Analyzer{a}, pkgs)
}

// RunShared loads the named shared stub and checks the diagnostics of
// suite, the analyzers whose want lines and allows the stub carries, against
// them.
func RunShared(t *testing.T, pkg string, suite ...*analysis.Analyzer) {
	t.Helper()
	modDir, _, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	run(t, filepath.Join(modDir, sharedDir), suite, []string{pkg})
}

func run(t *testing.T, dir string, suite []*analysis.Analyzer, pkgs []string) {
	t.Helper()
	modDir, modPath, err := analysis.FindModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	srcRoot := filepath.Join(dir, "src")
	loader := analysis.NewLoader(modPath, modDir, []string{srcRoot, filepath.Join(modDir, sharedDir, "src")}, true)
	for _, pkg := range pkgs {
		targets, err := loader.LoadDir(filepath.Join(srcRoot, pkg))
		if err != nil {
			t.Fatalf("load %s: %v", pkg, err)
		}
		if len(targets) == 0 {
			t.Fatalf("load %s: no packages found", pkg)
		}
		diags, err := analysis.Run(suite, suite, targets)
		if err != nil {
			t.Fatalf("run %s: %v", pkg, err)
		}
		for _, target := range targets {
			check(t, target, diags)
		}
	}
}

// wantRx matches one quoted expectation inside a want comment.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// check compares diagnostics against want comments, file by file.
func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	texts := map[key][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, q := range wantRx.FindAllString(c.Text[idx+len("// want "):], -1) {
					pat := q[1 : len(q)-1]
					if q[0] == '"' {
						pat = strings.ReplaceAll(pat, `\"`, `"`)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, q, err)
						continue
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], rx)
					texts[k] = append(texts[k], pat)
				}
			}
		}
	}
	inPkg := func(file string) bool {
		for _, f := range pkg.Files {
			if pkg.Fset.Position(f.Pos()).Filename == file {
				return true
			}
		}
		return false
	}
	for _, d := range diags {
		if !inPkg(d.Position.Filename) {
			continue
		}
		k := key{d.Position.Filename, d.Position.Line}
		matched := -1
		for i, rx := range wants[k] {
			if rx != nil && rx.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", d.Position, d.Message)
			continue
		}
		wants[k][matched] = nil // consumed
	}
	for k, rxs := range wants {
		for i, rx := range rxs {
			if rx != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, texts[k][i])
			}
		}
	}
}
