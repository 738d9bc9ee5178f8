package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestParseAllow pins the directive grammar: every leading field made of
// lowercase letters and digits (starting with a letter) is an analyzer
// name, and everything after the first field that breaks that shape is the
// justification. The practical consequence — justifications must start
// with a capitalized word — is what odinvet's doc comment promises.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		just  string
		ok    bool
	}{
		{"//lint:allow hotalloc", []string{"hotalloc"}, "", true},
		{"//lint:allow hotalloc Per-chunk scratch", []string{"hotalloc"}, "Per-chunk scratch", true},
		{"//lint:allow tracepair tagcheck Intentional permuted order", []string{"tracepair", "tagcheck"}, "Intentional permuted order", true},
		// Digits are legal inside a name: sell8 must parse as one name,
		// not be rejected or split.
		{"//lint:allow sell8 Vetted by hand", []string{"sell8"}, "Vetted by hand", true},
		// The wildcard suppresses everything and may carry a justification.
		{"//lint:allow * Fault-injection hook", []string{"*"}, "Fault-injection hook", true},
		// A lowercase justification is absorbed into the name list — the
		// trap the capitalization rule exists to avoid. The directive still
		// parses (suppression works; the extra "names" match nothing), but
		// the recorded justification is empty.
		{"//lint:allow hotalloc failure path only", []string{"hotalloc", "failure", "path", "only"}, "", true},
		// A name cannot start with a digit.
		{"//lint:allow 2fast Justification", nil, "", false},
		// No names at all: not a directive.
		{"//lint:allow", nil, "", false},
		{"//lint:allow Capitalized only", nil, "", false},
		// Unrelated comments.
		{"// lint:allow hotalloc", nil, "", false},
		{"//nolint:hotalloc", nil, "", false},
	}
	for _, c := range cases {
		names, just, ok := parseAllow(c.text)
		if ok != c.ok || just != c.just || !reflect.DeepEqual(names, c.names) {
			t.Errorf("parseAllow(%q) = %v, %q, %v; want %v, %q, %v",
				c.text, names, just, ok, c.names, c.just, c.ok)
		}
	}
}

// TestDirectives checks source-order listing and justification capture on
// a synthetic file; Directives needs only Fset and Files, so the package
// is built by hand.
func TestDirectives(t *testing.T) {
	const src = `package p

//lint:allow hotalloc Scratch buffer, amortized
var a int

func f() {
	_ = a //lint:allow tracepair tagcheck Both are fine here
	//lint:allow sell8
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := Directives(&Package{Fset: fset, Files: []*ast.File{file}})
	want := []struct {
		line  int
		names []string
		just  string
	}{
		{3, []string{"hotalloc"}, "Scratch buffer, amortized"},
		{7, []string{"tracepair", "tagcheck"}, "Both are fine here"},
		{8, []string{"sell8"}, ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d directives, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		d := got[i]
		if d.Position.Line != w.line || d.Justification != w.just || !reflect.DeepEqual(d.Analyzers, w.names) {
			t.Errorf("directive %d = line %d %v %q; want line %d %v %q",
				i, d.Position.Line, d.Analyzers, d.Justification, w.line, w.names, w.just)
		}
	}
}

// TestStaleAllows pins the directives the driver reports: each name that is
// no registered analyzer — also beside a registered one, as when a
// justification starts with a lowercase word — and each analyzer named whose
// finding the directive does not suppress — judged only for analyzers that ran, and * only when all of them
// did, so a -checks subset stays quiet about the rest.
func TestStaleAllows(t *testing.T) {
	alpha, beta := &Analyzer{Name: "alpha"}, &Analyzer{Name: "beta"}
	at := func(line int) token.Position { return token.Position{Filename: "f.go", Line: line} }
	dirs := []AllowDirective{
		{Position: at(1), Analyzers: []string{"alpha"}},                            // covers line 2
		{Position: at(10), Analyzers: []string{"alpha"}},                           // misplaced
		{Position: at(20), Analyzers: []string{"beta"}},                            // nothing to cover
		{Position: at(30), Analyzers: []string{"gamma"}},                           // unregistered
		{Position: at(40), Analyzers: []string{"*"}},                               // nothing to cover
		{Position: at(50), Analyzers: []string{"alpha", "beta"}},                   // covers alpha only
		{Position: at(60), Analyzers: []string{"alpha", "compress", "rebalances"}}, // covers alpha; lowercase reason
	}
	for _, c := range []struct {
		ran  []*Analyzer
		want []string // line: message prefix
	}{
		{[]*Analyzer{alpha}, []string{
			"10://lint:allow alpha suppresses no alpha finding",
			"30://lint:allow names no registered analyzer (gamma)",
			"60://lint:allow names no registered analyzer (compress)",
			"60://lint:allow names no registered analyzer (rebalances)",
		}},
		{[]*Analyzer{alpha, beta}, []string{
			"10://lint:allow alpha suppresses no alpha finding",
			"20://lint:allow beta suppresses no beta finding",
			"30://lint:allow names no registered analyzer (gamma)",
			"40://lint:allow * suppresses no finding",
			"50://lint:allow beta suppresses no beta finding",
			"60://lint:allow names no registered analyzer (compress)",
			"60://lint:allow names no registered analyzer (rebalances)",
		}},
	} {
		diags := []Diagnostic{
			{Analyzer: "alpha", Position: at(2)},
			{Analyzer: "alpha", Position: at(12)},
			{Analyzer: "alpha", Position: at(51)},
			{Analyzer: "alpha", Position: at(61)},
		}
		stale := suppress(diags, dirs, []*Analyzer{alpha, beta}, c.ran)
		if !diags[0].Suppressed || diags[1].Suppressed || !diags[2].Suppressed || !diags[3].Suppressed {
			t.Errorf("ran %d: suppressed = %v %v %v %v, want true false true true", len(c.ran),
				diags[0].Suppressed, diags[1].Suppressed, diags[2].Suppressed, diags[3].Suppressed)
		}
		if len(stale) != len(c.want) {
			t.Fatalf("ran %d: %d stale directives %v, want %d", len(c.ran), len(stale), stale, len(c.want))
		}
		for i, w := range c.want {
			line, msg, _ := strings.Cut(w, ":")
			got := stale[i]
			if got.Analyzer != "lint:allow" || fmt.Sprint(got.Position.Line) != line || !strings.HasPrefix(got.Message, msg) {
				t.Errorf("ran %d: stale[%d] = %d %s: %s, want %s", len(c.ran), i, got.Position.Line, got.Analyzer, got.Message, w)
			}
		}
	}
}
