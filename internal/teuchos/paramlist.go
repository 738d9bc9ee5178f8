// Package teuchos provides the general tools layer of the Trilinos analog.
// Its centerpiece is ParameterList, the hierarchical, typed parameter
// container that Trilinos packages use to configure solvers and
// preconditioners (paper Table I: "Teuchos — general tools (parameter
// lists, ...)").
package teuchos

import (
	"fmt"
	"sort"
	"sync"
)

// ParameterList is a hierarchical map of named, typed parameters. It is safe
// for concurrent use.
type ParameterList struct {
	mu     sync.Mutex
	name   string
	values map[string]any
	subs   map[string]*ParameterList
}

// NewParameterList returns an empty list with the given display name.
func NewParameterList(name string) *ParameterList {
	return &ParameterList{
		name:   name,
		values: make(map[string]any),
		subs:   make(map[string]*ParameterList),
	}
}

// Name returns the list's display name.
func (p *ParameterList) Name() string { return p.name }

// Set stores a parameter value, replacing any previous value of any type.
func (p *ParameterList) Set(key string, value any) *ParameterList {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.values[key] = value
	return p
}

// Get returns the raw value and whether it exists.
func (p *ParameterList) Get(key string) (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.values[key]
	return v, ok
}

// GetInt returns an integer parameter or def if absent. Stored float64
// values that are integral are accepted, since numeric literals often
// arrive as floats.
func (p *ParameterList) GetInt(key string, def int) int {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		if x == float64(int(x)) {
			return int(x)
		}
	}
	panic(fmt.Sprintf("teuchos: parameter %q is %T, want int", key, v))
}

// GetFloat returns a float parameter or def if absent; ints are widened.
func (p *ParameterList) GetFloat(key string, def float64) float64 {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	panic(fmt.Sprintf("teuchos: parameter %q is %T, want float64", key, v))
}

// GetString returns a string parameter or def if absent.
func (p *ParameterList) GetString(key, def string) string {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	if s, ok := v.(string); ok {
		return s
	}
	panic(fmt.Sprintf("teuchos: parameter %q is %T, want string", key, v))
}

// Sublist returns the named sub-list, creating it if needed.
func (p *ParameterList) Sublist(name string) *ParameterList {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.subs[name]; ok {
		return s
	}
	s := NewParameterList(name)
	p.subs[name] = s
	return s
}

// Keys returns the sorted parameter names in this list (not sub-lists).
func (p *ParameterList) Keys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.values))
	for k := range p.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge copies every parameter and sub-list of other into p, overwriting
// collisions.
func (p *ParameterList) Merge(other *ParameterList) {
	other.mu.Lock()
	values := make(map[string]any, len(other.values))
	for k, v := range other.values {
		values[k] = v
	}
	subNames := make([]string, 0, len(other.subs))
	for k := range other.subs {
		subNames = append(subNames, k)
	}
	other.mu.Unlock()

	for k, v := range values {
		p.Set(k, v)
	}
	for _, name := range subNames {
		p.Sublist(name).Merge(other.Sublist(name))
	}
}
