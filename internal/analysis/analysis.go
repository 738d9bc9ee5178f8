// Package analysis is a dependency-free reimplementation of the spine of
// golang.org/x/tools/go/analysis, sized for this repo's odinvet suite. The
// build environment bakes in only the Go toolchain (no module proxy), so the
// x/tools driver stack is out of reach; what the suite actually needs from it
// is small and reimplemented here: an Analyzer/Pass/Diagnostic vocabulary, a
// source loader that typechecks packages with full go/types information
// (load.go), a driver that runs analyzers and honors `//lint:allow <analyzer>`
// escape hatches, and an analysistest-style harness (see the analysistest
// subpackage) driven by `// want "regex"` comments in testdata.
//
// The domain analyzers live in sibling packages (tagcheck, hotalloc,
// tracepair, planreuse), and cmd/odinvet is the multichecker binary that
// runs them over the tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors the x/tools shape so the
// suite could migrate to the real driver if the dependency ever becomes
// available: Name is the identifier used in diagnostics and in
// `//lint:allow <name>` directives, Doc the one-paragraph contract, Run the
// per-package entry point.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one analyzer. Suppressed marks findings
// covered by a //lint:allow directive; Run filters them out, RunAll keeps
// them for machine consumers.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Pos
	Position   token.Position
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Run applies the analyzers in ran (a subset of registered) to every
// package and returns the surviving diagnostics sorted by position:
// findings suppressed by a `//lint:allow <analyzer>` directive (same line or
// the line above the finding) are filtered out, and stale directives are
// reported (see RunAll). A directive may carry a trailing justification:
// `//lint:allow hotalloc Per-chunk scratch, amortized`.
func Run(registered, ran []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	diags, err := RunAll(registered, ran, pkgs)
	if err != nil {
		return nil, err
	}
	out := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out, nil
}

// RunAll is Run without the suppression filter: findings covered by a
// lint:allow directive are returned with Suppressed set instead of
// dropped, so machine consumers (odinvet -json) can surface them.
//
// Directives are findings too, under the name "lint:allow", for each name
// that is no registered analyzer (a justification starting with a lowercase
// word parses as names), and for each analyzer they name whose finding they
// do not suppress. The second kind is judged only for analyzers in ran —
// and `*` only when every registered analyzer ran — so a -checks subset
// stays quiet about the rest.
func RunAll(registered, ran []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		start := len(diags)
		for _, a := range ran {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, suppress(diags[start:], Directives(pkg), registered, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// suppress marks the diagnostics covered by dirs — a directive covers its
// own line and the next — and returns a finding for each stale directive.
func suppress(diags []Diagnostic, dirs []AllowDirective, registered, ran []*Analyzer) []Diagnostic {
	has := func(as []*Analyzer, name string) bool {
		return slices.ContainsFunc(as, func(a *Analyzer) bool { return a.Name == name })
	}
	var stale []Diagnostic
	for _, dir := range dirs {
		used := map[string]bool{}
		for i, d := range diags {
			if d.Position.Filename == dir.Position.Filename &&
				(d.Position.Line == dir.Position.Line || d.Position.Line == dir.Position.Line+1) &&
				(slices.Contains(dir.Analyzers, "*") || slices.Contains(dir.Analyzers, d.Analyzer)) {
				diags[i].Suppressed = true
				used[d.Analyzer] = true
			}
		}
		report := func(format string, args ...any) {
			stale = append(stale, Diagnostic{Analyzer: "lint:allow", Position: dir.Position,
				Message: fmt.Sprintf(format, args...)})
		}
		switch {
		case slices.Contains(dir.Analyzers, "*"):
			if len(used) == 0 && len(ran) == len(registered) {
				report("//lint:allow * suppresses no finding on this line or the next; delete it")
			}
		default:
			for _, n := range dir.Analyzers {
				switch {
				case !has(registered, n):
					report("//lint:allow names no registered analyzer (%s); fix the name or delete it", n)
				case has(ran, n) && !used[n]:
					report("//lint:allow %s suppresses no %s finding on this line or the next; delete it", n, n)
				}
			}
		}
	}
	return stale
}

// AllowDirective is one //lint:allow occurrence in a package's sources.
type AllowDirective struct {
	Position      token.Position
	Analyzers     []string // suppressed analyzer names, or ["*"]
	Justification string   // free-form text after the names; may be empty
}

// Directives lists every lint:allow directive in pkg, in source order.
// odinvet's -allows mode prints them so every standing exception and its
// justification stays auditable.
func Directives(pkg *Package) []AllowDirective {
	var out []AllowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, just, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				out = append(out, AllowDirective{
					Position:      pkg.Fset.Position(c.Slash),
					Analyzers:     names,
					Justification: just,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// parseAllow recognizes `//lint:allow name [name...] [justification]`.
// Every leading field that looks like an analyzer name (lowercase ASCII
// letters and digits, starting with a letter — "sell8" qualifies) is a
// suppressed analyzer; the rest is free-form justification, which is why
// justifications must start with a capitalized word. `//lint:allow *`
// suppresses every analyzer on the covered lines.
func parseAllow(text string) (names []string, justification string, ok bool) {
	const prefix = "//lint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(text[len(prefix):])
	fields := strings.Fields(rest)
	for _, f := range fields {
		if f == "*" || isAnalyzerName(f) {
			names = append(names, f)
			continue
		}
		break
	}
	if len(names) == 0 {
		return nil, "", false
	}
	return names, strings.Join(fields[len(names):], " "), true
}

func isAnalyzerName(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
			return false
		}
	}
	return true
}
