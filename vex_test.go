package odinhpc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	xRegister = regexp.MustCompile(`\bX\d+\b`)
	yRegister = regexp.MustCompile(`\bY\d+\b`)
)

// legacySSE returns, as "line N: statement", every instruction of an amd64
// assembly source that names an X register but is not VEX-encoded — its
// mnemonic does not start with V (MOVQ or MOVD to or from X, MOVSD, MOVUPD,
// PXOR, XORPD, ...) — inside a TEXT block that uses a Y register. Such an
// instruction after 256-bit code makes the CPU save or merge the upper halves
// of the vector registers, which can cost more than the kernel itself. A
// TEXT block runs to the next one; the lines before the first (macro
// definitions) are checked when any block of the source uses a Y register.
// Each statement of a line is checked apart: a macro body joins them with
// ";" and continues its lines with "\".
func legacySSE(src string) []string {
	type stmt struct {
		line int
		text string
	}
	type block struct {
		usesY bool
		stmts []stmt
	}
	blocks := []*block{{}}
	anyY := false
	for n, line := range strings.Split(src, "\n") {
		line, _, _ = strings.Cut(line, "//")
		line = strings.TrimSuffix(strings.TrimSpace(line), `\`)
		if strings.HasPrefix(line, "TEXT") {
			blocks = append(blocks, &block{})
		}
		b := blocks[len(blocks)-1]
		if yRegister.MatchString(line) {
			b.usesY, anyY = true, true
		}
		for _, s := range strings.Split(line, ";") {
			fields := strings.Fields(s)
			if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
				fields = fields[1:] // a label
			}
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") || strings.HasPrefix(fields[0], "V") {
				continue
			}
			if xRegister.MatchString(strings.Join(fields[1:], " ")) {
				b.stmts = append(b.stmts, stmt{n + 1, strings.Join(fields, " ")})
			}
		}
	}
	blocks[0].usesY = anyY
	var out []string
	for _, b := range blocks {
		if b.usesY {
			for _, s := range b.stmts {
				out = append(out, fmt.Sprintf("line %d: %s", s.line, s.text))
			}
		}
	}
	return out
}

// TestAssemblyIsVEXOnly holds every amd64 assembly file under internal/ to
// VEX encoding wherever a kernel uses the 256-bit registers (legacySSE). A
// single legacy-SSE MOVQ R9, X13 in a SELL kernel once made a slice take
// seven times as long; nothing else would catch it, as the results stay
// bitwise the same.
func TestAssemblyIsVEXOnly(t *testing.T) {
	for name, c := range map[string]struct {
		src  string
		want int
	}{
		"legacy MOVQ beside Y": {"TEXT ·f(SB), NOSPLIT, $0-8\n\tVXORPD\tY0, Y0, Y0\nloop:\tMOVQ\tR9, X13 // c0\n\tVZEROUPPER\n\tRET\n", 1},
		"VEX only":             {"TEXT ·f(SB), NOSPLIT, $0-8\n\tVXORPD\tY0, Y0, Y0\n\tVMOVQ\tR9, X13\n\tVMOVSD\tX0, (SI)(R9*8)\n\tRET\n", 0},
		"no Y in the block":    {"TEXT ·f(SB), NOSPLIT, $0-8\n\tMOVQ\tR9, X13\n\tRET\nTEXT ·g(SB), NOSPLIT, $0-8\n\tVXORPD\tY0, Y0, Y0\n\tRET\n", 0},
		"macro before TEXT":    {"#define STORE(r) \\\n\tMOVQ\tR8, R9; \\\n\tMOVSD\tX0, (r)\nTEXT ·f(SB), NOSPLIT, $0-8\n\tVXORPD\tY0, Y0, Y0\n\tSTORE(SI)\n\tRET\n", 1},
	} {
		if got := legacySSE(c.src); len(got) != c.want {
			t.Errorf("%s: legacySSE found %q, want %d", name, got, c.want)
		}
	}
	n := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_amd64.s") {
			return err
		}
		n++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, bad := range legacySSE(string(src)) {
			t.Errorf("%s, %s: not VEX-encoded in a kernel that uses Y registers", path, bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no *_amd64.s file under internal/")
	}
}
