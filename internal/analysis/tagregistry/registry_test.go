package tagregistry_test

import (
	"go/constant"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"odinhpc/internal/analysis"
	"odinhpc/internal/analysis/tagregistry"
)

// tagOwners are the packages whose exported *Tag constants must appear in
// the registry. A new reserved tag is introduced by exporting a FooTag
// constant in the owning package AND registering its range here in the
// same change; this test fails when the first half lands without the
// second.
var tagOwners = []struct {
	dir   string // relative to the module root
	owner string // Range.Owner short name
}{
	{"internal/comm", "comm"},
	{"internal/core", "core"},
	{"internal/slicing", "slicing"},
}

// TestRegistryCoversExportedTagConstants walks the tag-owning packages for
// exported package-level integer constants named *Tag and checks that each
// value sits inside a Reserved() range owned by that package. Drift in
// either direction is an error: an unregistered constant means tagcheck
// cannot protect the new traffic, and a registered range whose owning
// package no longer declares a matching constant means the registry
// references dead traffic.
func TestRegistryCoversExportedTagConstants(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader("odinhpc", root, nil, false)

	owners := map[string]bool{}
	for _, o := range tagOwners {
		owners[o.owner] = true
	}
	covered := map[string]bool{} // owners with at least one matching constant

	for _, o := range tagOwners {
		pkgs, err := loader.LoadDir(filepath.Join(root, o.dir))
		if err != nil {
			t.Fatalf("load %s: %v", o.dir, err)
		}
		for _, pkg := range pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				cst, ok := scope.Lookup(name).(*types.Const)
				if !ok || !cst.Exported() || !strings.HasSuffix(name, "Tag") {
					continue
				}
				val := cst.Val()
				if val.Kind() != constant.Int {
					continue
				}
				tag, exact := constant.Int64Val(val)
				if !exact {
					t.Errorf("%s.%s does not fit in int64; message tags are int64", o.owner, name)
					continue
				}
				covered[o.owner] = true
				r, ok := tagregistry.Lookup(tag)
				if !ok {
					t.Errorf("%s.%s = %d is not inside any reserved range; add it to tagregistry.Reserved in the change that introduces the traffic", o.owner, name, tag)
					continue
				}
				if r.Owner != o.owner {
					t.Errorf("%s.%s = %d falls in range %q owned by %q; tags must live in a range their own package owns", o.owner, name, tag, r.Name, r.Owner)
				}
			}
		}
	}

	// The reverse direction: every registered owner still declares at least
	// one exported *Tag constant (the comm negative range is anchored by
	// AnyTag/AnySource).
	for _, r := range tagregistry.Reserved() {
		if !owners[r.Owner] {
			t.Errorf("reserved range %q has owner %q, which is not in this test's walk list; extend tagOwners", r.Name, r.Owner)
			continue
		}
		if !covered[r.Owner] {
			t.Errorf("reserved range %q is owned by %q, but that package exports no *Tag constant anymore; retire the reservation or restore the constant", r.Name, r.Owner)
		}
	}
}
