package teuchos

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSetGetTyped(t *testing.T) {
	p := NewParameterList("solver")
	p.Set("max iterations", 100).Set("tolerance", 1e-8).Set("method", "cg")
	if p.GetInt("max iterations", 0) != 100 {
		t.Fatal("GetInt")
	}
	if p.GetFloat("tolerance", 0) != 1e-8 {
		t.Fatal("GetFloat")
	}
	if p.GetString("method", "") != "cg" {
		t.Fatal("GetString")
	}
	if p.Name() != "solver" {
		t.Fatal("Name")
	}
}

func TestDefaults(t *testing.T) {
	p := NewParameterList("l")
	if p.GetInt("missing", 42) != 42 {
		t.Fatal("int default")
	}
	if p.GetFloat("missing", 1.5) != 1.5 {
		t.Fatal("float default")
	}
	if p.GetString("missing", "x") != "x" {
		t.Fatal("string default")
	}
}

func TestNumericCoercion(t *testing.T) {
	p := NewParameterList("l")
	p.Set("n", 7.0)   // float that is integral
	p.Set("alpha", 3) // int read as float
	p.Set("big", int64(9))
	if p.GetInt("n", 0) != 7 {
		t.Fatal("float->int")
	}
	if p.GetFloat("alpha", 0) != 3.0 {
		t.Fatal("int->float")
	}
	if p.GetInt("big", 0) != 9 {
		t.Fatal("int64->int")
	}
	if p.GetFloat("big", 0) != 9.0 {
		t.Fatal("int64->float")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	p := NewParameterList("l")
	p.Set("s", "text")
	p.Set("frac", 2.5)
	for name, fn := range map[string]func(){
		"int-from-string":   func() { p.GetInt("s", 0) },
		"int-from-fraction": func() { p.GetInt("frac", 0) },
		"float-from-string": func() { p.GetFloat("s", 0) },
		"string-from-float": func() { p.GetString("frac", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSublist(t *testing.T) {
	p := NewParameterList("top")
	p.Sublist("smoother").Set("sweeps", 3)
	if p.Sublist("smoother").GetInt("sweeps", 0) != 3 {
		t.Fatal("sublist value")
	}
	// Sublist is stable: repeated calls return the same list.
	p.Sublist("smoother").Set("omega", 1.2)
	if p.Sublist("smoother").GetFloat("omega", 0) != 1.2 {
		t.Fatal("sublist identity")
	}
}

func TestKeysSorted(t *testing.T) {
	p := NewParameterList("l")
	p.Set("zeta", 1).Set("alpha", 2).Set("mid", 3)
	if !reflect.DeepEqual(p.Keys(), []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("Keys = %v", p.Keys())
	}
}

func TestMerge(t *testing.T) {
	a := NewParameterList("a")
	a.Set("x", 1).Set("y", 2)
	a.Sublist("sub").Set("p", 1)
	b := NewParameterList("b")
	b.Set("y", 99).Set("z", 3)
	b.Sublist("sub").Set("q", 2)
	a.Merge(b)
	if a.GetInt("x", 0) != 1 || a.GetInt("y", 0) != 99 || a.GetInt("z", 0) != 3 {
		t.Fatal("merge values")
	}
	if a.Sublist("sub").GetInt("p", 0) != 1 || a.Sublist("sub").GetInt("q", 0) != 2 {
		t.Fatal("merge sublists")
	}
}

func TestString(t *testing.T) {
	p := NewParameterList("top")
	p.Set("alpha", 1.5)
	p.Sublist("inner").Set("beta", 2)
	s := p.String()
	for _, want := range []string{"top:", "alpha = 1.5", "inner:", "beta = 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := NewParameterList("l")
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			p.Set("k", i)
			p.Sublist("s").Set("v", i)
		}
		close(done)
	}()
	for i := 0; i < 500; i++ {
		p.GetInt("k", 0)
		p.Sublist("s").GetInt("v", 0)
		p.Keys()
	}
	<-done
}

// String renders the list and its sub-lists with indentation.
func (p *ParameterList) String() string {
	var b strings.Builder
	p.render(&b, 0)
	return b.String()
}

func (p *ParameterList) render(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s:\n", ind, p.name)
	for _, k := range p.Keys() {
		p.mu.Lock()
		v := p.values[k]
		p.mu.Unlock()
		fmt.Fprintf(b, "%s  %s = %v (%T)\n", ind, k, v, v)
	}
	p.mu.Lock()
	names := make([]string, 0, len(p.subs))
	for k := range p.subs {
		names = append(names, k)
	}
	p.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		p.Sublist(name).render(b, depth+1)
	}
}
