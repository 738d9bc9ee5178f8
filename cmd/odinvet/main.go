// Command odinvet is the multichecker for the framework's domain
// invariants: the four analyzers under internal/analysis (tagcheck,
// hotalloc, tracepair, planreuse) run over the tree and fail the build on any
// finding. See DESIGN.md "Static analysis" for the invariant
// behind each analyzer and the escape hatch.
//
// Usage (no install step, used by scripts/verify.sh and CI):
//
//	go run ./cmd/odinvet ./...
//	odinvet [-tests=false] [-checks=tagcheck,hotalloc] ./internal/comm ./...
//	odinvet -json ./...    # NDJSON diagnostics, suppressed findings included
//	odinvet -allows ./...  # list every //lint:allow with its justification
//
// Findings print as file:line:col: analyzer: message. A deliberate
// exception is annotated at the finding site:
//
//	//lint:allow hotalloc Per-chunk scratch, amortized over the chunk
//
// on the flagged line or the line directly above it. The justification
// must start with a capitalized word: lowercase leading words parse as
// additional analyzer names. Each name in a directive that is no registered
// analyzer, and each named analyzer whose finding it does not suppress, is
// itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"odinhpc/internal/analysis"
	"odinhpc/internal/analysis/hotalloc"
	"odinhpc/internal/analysis/planreuse"
	"odinhpc/internal/analysis/tagcheck"
	"odinhpc/internal/analysis/tagregistry"
	"odinhpc/internal/analysis/tracepair"
)

// all is the registered analyzer suite.
var all = []*analysis.Analyzer{
	tagcheck.Analyzer,
	hotalloc.Analyzer,
	tracepair.Analyzer,
	planreuse.Analyzer,
}

func main() {
	installRegistry()

	fs := flag.NewFlagSet("odinvet", flag.ExitOnError)
	tests := fs.Bool("tests", true, "also analyze _test.go files and external test packages")
	checks := fs.String("checks", "", "comma-separated analyzer subset (default: all)")
	jsonOut := fs.Bool("json", false, "emit NDJSON diagnostics (file/line/col/analyzer/message/suppressed), including suppressed findings")
	allows := fs.Bool("allows", false, "list every //lint:allow directive with its justification instead of running analyzers")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: odinvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odinvet:", err)
		os.Exit(2)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "odinvet:", err)
		os.Exit(2)
	}
	modRoot, modPath, err := analysis.FindModule(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odinvet:", err)
		os.Exit(2)
	}
	dirs, err := expand(patterns, modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odinvet:", err)
		os.Exit(2)
	}

	loader := analysis.NewLoader(modPath, modRoot, nil, *tests)
	exit := 0
	enc := json.NewEncoder(os.Stdout)
	for _, dir := range dirs {
		pkgs, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odinvet: %s: %v\n", dir, err)
			exit = 2
			continue
		}
		if *allows {
			for _, pkg := range pkgs {
				for _, ad := range analysis.Directives(pkg) {
					just := ad.Justification
					if just == "" {
						just = "(no justification)"
					}
					fmt.Printf("%s:%d: %s: %s\n", ad.Position.Filename, ad.Position.Line,
						strings.Join(ad.Analyzers, ","), just)
				}
			}
			continue
		}
		diags, err := analysis.RunAll(all, analyzers, pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odinvet: %s: %v\n", dir, err)
			exit = 2
			continue
		}
		for _, d := range diags {
			switch {
			case *jsonOut:
				enc.Encode(jsonDiag{
					File:       d.Position.Filename,
					Line:       d.Position.Line,
					Col:        d.Position.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: d.Suppressed,
				})
			case d.Suppressed:
				continue
			default:
				fmt.Println(d)
			}
			if !d.Suppressed {
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

// jsonDiag is the -json wire shape, one object per line (NDJSON).
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// installRegistry wires the source-of-truth tag reservations into tagcheck.
func installRegistry() {
	var rs []tagcheck.Range
	for _, r := range tagregistry.Reserved() {
		rs = append(rs, tagcheck.Range{Name: r.Name, Lo: r.Lo, Hi: r.Hi, Owner: r.Owner})
	}
	tagcheck.SetReserved(rs)
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	if checks == "" {
		return all, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// expand resolves package patterns to directories containing Go files.
// Supported forms: "./...", "dir/...", "dir", "./dir".
func expand(patterns []string, modRoot string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			base := rest
			if base == "." || base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if hasGoFiles(p) {
			add(p)
			continue
		}
		return nil, fmt.Errorf("pattern %q matches no Go package directory", p)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
