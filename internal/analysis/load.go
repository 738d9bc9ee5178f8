package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked package ready for analysis. A directory with
// test files yields up to two Packages: the base package with its in-package
// _test.go files merged, and the external "_test" package if present.
type Package struct {
	Path  string // import path ("odinhpc/internal/comm", or "comm" under a src root)
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and typechecks packages from source with stdlib machinery
// only. Imports are resolved in three tiers: paths under ModulePath map into
// ModuleDir, paths that exist under one of SrcRoots (the analysistest
// GOPATH-style roots, searched in order) load from there, and everything
// else — the standard library — is delegated to go/importer's "source"
// compiler, which re-typechecks std packages from GOROOT. One Loader instance caches every imported package,
// so the std tax is paid once per process, not once per target.
type Loader struct {
	ModulePath string // e.g. "odinhpc"; empty when loading testdata only
	ModuleDir  string
	SrcRoots   []string // e.g. ".../testdata/src"; import "x" resolves to the first root/x
	Tests      bool     // include _test.go files of target packages

	fset   *token.FileSet
	std    types.ImporterFrom
	cache  map[string]*types.Package
	loaded map[string]*Package // import-variant (no test files) packages by path
}

// NewLoader returns a ready Loader. Any of modulePath/moduleDir/srcRoots may
// be empty when that resolution tier is unused.
func NewLoader(modulePath, moduleDir string, srcRoots []string, tests bool) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		SrcRoots:   srcRoots,
		Tests:      tests,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:      map[string]*types.Package{},
		loaded:     map[string]*Package{},
	}
}

// Import implements types.Importer for the typechecker's benefit.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if dir, ok := l.resolve(path); ok {
		pkg, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		l.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	if srcDir == "" {
		srcDir = l.ModuleDir
	}
	p, err := l.std.ImportFrom(path, srcDir, 0)
	if err == nil {
		l.cache[path] = p
	}
	return p, err
}

// resolve maps an import path onto a source directory via the module and
// src-root tiers. It reports false for standard-library paths.
func (l *Loader) resolve(path string) (string, bool) {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir, true
		}
		if strings.HasPrefix(path, l.ModulePath+"/") {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/"))), true
		}
	}
	for _, root := range l.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// LoadDir loads the package in dir as an analysis target: the base package
// (with in-package test files when Tests is set) plus the external _test
// package if one exists. Without Tests the target is the import variant
// itself, so its objects are the ones its importers' type information
// refers to. dir must be under ModuleDir or a SrcRoots entry so the
// package's import path can be derived.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	if !l.Tests {
		pkg, err := l.load(abs, path)
		if pkg == nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	}
	base, xtest, err := l.splitFiles(abs)
	if err != nil {
		return nil, err
	}
	var out []*Package
	if len(base) > 0 {
		pkg, err := l.check(path, base)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if len(xtest) > 0 {
		pkg, err := l.check(path+"_test", xtest)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// load typechecks the import variant of the package in dir (no test files),
// nil when dir has none.
func (l *Loader) load(dir, path string) (*Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkg, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// splitFiles parses dir and partitions its files, test files included, into
// the base package and the external test package ("foo_test").
func (l *Loader) splitFiles(dir string) (base, xtest []*ast.File, err error) {
	files, err := l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return nil, nil, err
	}
	var baseName string
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			baseName = f.Name.Name
			break
		}
	}
	for _, f := range files {
		name := f.Name.Name
		if strings.HasSuffix(name, "_test") && (baseName == "" || name == baseName+"_test") {
			xtest = append(xtest, f)
		} else {
			base = append(base, f)
		}
	}
	return base, xtest, nil
}

// parseDir parses every .go file in dir that a default build would compile
// and keep accepts, sorted by name for deterministic positions.
func (l *Loader) parseDir(dir string, keep func(string) bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		// Build constraints apply as in a default build (no tags), so a
		// package with tag-selected file pairs typechecks as one variant.
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		if keep(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check runs the typechecker over files as package path.
func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// importPath derives the import path of an absolute package directory from
// the loader's src or module roots. The src roots go first: analysistest
// roots live inside the module, and their packages are named from there.
func (l *Loader) importPath(abs string) (string, error) {
	for _, root := range l.SrcRoots {
		if rootAbs, err := filepath.Abs(root); err == nil {
			if rel, err := filepath.Rel(rootAbs, abs); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel), nil
			}
		}
	}
	if l.ModuleDir != "" {
		if modAbs, err := filepath.Abs(l.ModuleDir); err == nil {
			if abs == modAbs {
				return l.ModulePath, nil
			}
			if rel, err := filepath.Rel(modAbs, abs); err == nil && !strings.HasPrefix(rel, "..") {
				return l.ModulePath + "/" + filepath.ToSlash(rel), nil
			}
		}
	}
	return "", fmt.Errorf("cannot derive import path for %s", abs)
}

// FindModule locates the go.mod at or above dir and reads its module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
