package odinhpc

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCommHasNoReflectOrGob holds the comm package's non-test files to its
// closed payload set: Send copies, Stats sizes and the tcp codec encodes and
// decodes a payload through comm.Elem's kinds table (payload.go) alone. A
// reflect or encoding/gob import is how a second path would come back — a
// reflection copy or a gob fallback that one transport takes and another
// does not.
func TestCommHasNoReflectOrGob(t *testing.T) {
	paths, err := filepath.Glob("internal/comm/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		n++
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "reflect" || p == "encoding/gob" {
				t.Errorf("%s imports %s", path, p)
			}
		}
	}
	if n == 0 {
		t.Fatal("no non-test file in internal/comm")
	}
}
