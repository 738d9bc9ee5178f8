// Package table implements ODIN's distributed structured/tabular data
// (§III.I): record tables distributed by rows across ranks, with filtering
// and a shuffle-based group-reduce — "the fundamental components for
// parallel Map-Reduce style computations".
package table

import (
	"fmt"
	"hash/fnv"
	"sort"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
)

// Kind is a column element type.
type Kind int

// Column kinds.
const (
	Float Kind = iota
	Int
	String
)

// Column describes one table column.
type Column struct {
	Name string
	Kind Kind
}

// Table is a row-distributed record table: each rank holds a bag of local
// rows with a shared schema. Row order across ranks is unspecified, like a
// shuffled dataset.
type Table struct {
	ctx    *core.Context
	schema []Column
	floats map[string][]float64
	ints   map[string][]int64
	strs   map[string][]string
	nLocal int
}

// New returns an empty distributed table with the given schema. Collective
// in bookkeeping only.
func New(ctx *core.Context, schema []Column) *Table {
	if len(schema) == 0 {
		panic("table: schema must have at least one column")
	}
	t := &Table{
		ctx:    ctx,
		schema: append([]Column(nil), schema...),
		floats: map[string][]float64{},
		ints:   map[string][]int64{},
		strs:   map[string][]string{},
	}
	seen := map[string]bool{}
	for _, col := range schema {
		if seen[col.Name] {
			panic(fmt.Sprintf("table: duplicate column %q", col.Name))
		}
		seen[col.Name] = true
		switch col.Kind {
		case Float:
			t.floats[col.Name] = nil
		case Int:
			t.ints[col.Name] = nil
		case String:
			t.strs[col.Name] = nil
		default:
			panic(fmt.Sprintf("table: unknown kind for column %q", col.Name))
		}
	}
	return t
}

// AppendRow adds one local row; vals must match the schema order and kinds
// (float64, int64/int, string). Local operation.
func (t *Table) AppendRow(vals ...any) {
	if len(vals) != len(t.schema) {
		panic(fmt.Sprintf("table: row has %d values, schema has %d columns", len(vals), len(t.schema)))
	}
	for i, col := range t.schema {
		switch col.Kind {
		case Float:
			switch v := vals[i].(type) {
			case float64:
				t.floats[col.Name] = append(t.floats[col.Name], v)
			case int:
				t.floats[col.Name] = append(t.floats[col.Name], float64(v))
			default:
				panic(fmt.Sprintf("table: column %q wants float, got %T", col.Name, vals[i]))
			}
		case Int:
			switch v := vals[i].(type) {
			case int64:
				t.ints[col.Name] = append(t.ints[col.Name], v)
			case int:
				t.ints[col.Name] = append(t.ints[col.Name], int64(v))
			default:
				panic(fmt.Sprintf("table: column %q wants int, got %T", col.Name, vals[i]))
			}
		case String:
			s, ok := vals[i].(string)
			if !ok {
				panic(fmt.Sprintf("table: column %q wants string, got %T", col.Name, vals[i]))
			}
			t.strs[col.Name] = append(t.strs[col.Name], s)
		}
	}
	t.nLocal++
}

// NumRowsGlobal returns the total row count. Collective.
func (t *Table) NumRowsGlobal() int {
	return comm.AllreduceScalar(t.ctx.Comm(), t.nLocal, comm.OpSum)
}

// Row is a lightweight accessor for one local row.
type Row struct {
	t *Table
	i int
}

// Int returns the value of an int column in this row.
func (r Row) Int(name string) int64 {
	col, ok := r.t.ints[name]
	if !ok {
		panic(fmt.Sprintf("table: no int column %q", name))
	}
	return col[r.i]
}

// EachLocal calls f on every local row.
func (t *Table) EachLocal(f func(r Row)) {
	for i := 0; i < t.nLocal; i++ {
		f(Row{t, i})
	}
}

// Filter returns a new table keeping the local rows for which pred holds —
// the embarrassingly parallel "map" side of map-reduce. Local operation.
func (t *Table) Filter(pred func(r Row) bool) *Table {
	out := New(t.ctx, t.schema)
	t.EachLocal(func(r Row) {
		if pred(r) {
			out.appendFrom(t, r.i)
		}
	})
	return out
}

func (t *Table) appendFrom(src *Table, i int) {
	for _, col := range t.schema {
		switch col.Kind {
		case Float:
			t.floats[col.Name] = append(t.floats[col.Name], src.floats[col.Name][i])
		case Int:
			t.ints[col.Name] = append(t.ints[col.Name], src.ints[col.Name][i])
		case String:
			t.strs[col.Name] = append(t.strs[col.Name], src.strs[col.Name][i])
		}
	}
	t.nLocal++
}

// SumFloat returns the global sum of a float column. Collective.
func (t *Table) SumFloat(name string) float64 {
	col, ok := t.floats[name]
	if !ok {
		panic(fmt.Sprintf("table: no float column %q", name))
	}
	var local float64
	for _, v := range col {
		local += v
	}
	return comm.AllreduceScalar(t.ctx.Comm(), local, comm.OpSum)
}

// AggOp is a group-reduce aggregation operator.
type AggOp int

// Aggregation operators.
const (
	AggSum AggOp = iota
	AggCount
	AggMin
	AggMax
	AggMean
)

func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggMean:
		return "mean"
	}
	return fmt.Sprintf("AggOp(%d)", int(op))
}

// GroupReduce groups rows by a string key column, shuffles each group to
// the rank owning its key (hash partitioning, the map-reduce "shuffle"),
// and aggregates a float column with op. The result is a distributed table
// with schema [key, <op>] whose keys are locally sorted. Collective.
func (t *Table) GroupReduce(keyCol, valCol string, op AggOp) *Table {
	keys, ok := t.strs[keyCol]
	if !ok {
		panic(fmt.Sprintf("table: no string column %q", keyCol))
	}
	vals, ok := t.floats[valCol]
	if !ok {
		panic(fmt.Sprintf("table: no float column %q", valCol))
	}
	t.ctx.Control(core.OpReduce, int64(op))
	p := t.ctx.Size()
	// Pre-aggregate locally (the classic combiner optimization), then
	// shuffle (key, sum, count, min, max) records to the key's home rank.
	type acc struct {
		sum, mn, mx float64
		count       int64
	}
	local := map[string]*acc{}
	for i, k := range keys {
		a := local[k]
		if a == nil {
			a = &acc{mn: vals[i], mx: vals[i]}
			local[k] = a
			a.sum = vals[i]
			a.count = 1
			continue
		}
		a.sum += vals[i]
		a.count++
		if vals[i] < a.mn {
			a.mn = vals[i]
		}
		if vals[i] > a.mx {
			a.mx = vals[i]
		}
	}
	// Pack per destination.
	outKeys := make([][]string, p)
	outNums := make([][]float64, p) // sum, mn, mx triples
	outCnts := make([][]int64, p)
	for k, a := range local {
		h := fnv.New32a()
		h.Write([]byte(k))
		d := int(h.Sum32()) % p
		if d < 0 {
			d += p
		}
		outKeys[d] = append(outKeys[d], k)
		outNums[d] = append(outNums[d], a.sum, a.mn, a.mx)
		outCnts[d] = append(outCnts[d], a.count)
	}
	inKeys := comm.Alltoall(t.ctx.Comm(), outKeys)
	inNums := comm.Alltoall(t.ctx.Comm(), outNums)
	inCnts := comm.Alltoall(t.ctx.Comm(), outCnts)
	merged := map[string]*acc{}
	for r := range inKeys {
		for i, k := range inKeys[r] {
			sum, mn, mx := inNums[r][3*i], inNums[r][3*i+1], inNums[r][3*i+2]
			cnt := inCnts[r][i]
			a := merged[k]
			if a == nil {
				merged[k] = &acc{sum: sum, mn: mn, mx: mx, count: cnt}
				continue
			}
			a.sum += sum
			a.count += cnt
			if mn < a.mn {
				a.mn = mn
			}
			if mx > a.mx {
				a.mx = mx
			}
		}
	}
	out := New(t.ctx, []Column{{keyCol, String}, {op.String(), Float}})
	sortedKeys := make([]string, 0, len(merged))
	for k := range merged {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	for _, k := range sortedKeys {
		a := merged[k]
		var v float64
		switch op {
		case AggSum:
			v = a.sum
		case AggCount:
			v = float64(a.count)
		case AggMin:
			v = a.mn
		case AggMax:
			v = a.mx
		case AggMean:
			v = a.sum / float64(a.count)
		}
		out.AppendRow(k, v)
	}
	return out
}

// GatherRows returns every (key, value) pair of a two-column result table
// on every rank, sorted by key — convenient for asserting on GroupReduce
// output. Collective.
func (t *Table) GatherRows(keyCol, valCol string) (keys []string, vals []float64) {
	keys = comm.AllgatherFlat(t.ctx.Comm(), t.strs[keyCol])
	vals = comm.AllgatherFlat(t.ctx.Comm(), t.floats[valCol])
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sk := make([]string, len(keys))
	sv := make([]float64, len(vals))
	for i, j := range idx {
		sk[i], sv[i] = keys[j], vals[j]
	}
	return sk, sv
}
