// Package distmap provides global-to-local index mappings that describe how
// a one-dimensional global index space of N elements is distributed over P
// ranks. It is the analog of the Epetra/Tpetra Map classes that underlie both
// PyTrilinos vectors and ODIN distributed arrays.
//
// Four distribution kinds are supported, matching the paper's §III.A list of
// controllable distributions: block, cyclic, block-cyclic, and arbitrary
// ("another arbitrary global-to-local index mapping can be specified").
package distmap

import (
	"fmt"
)

// Kind identifies the distribution family of a Map.
type Kind int

// Distribution kinds.
const (
	Block Kind = iota
	Cyclic
	BlockCyclic
	Arbitrary
)

func (k Kind) String() string {
	switch k {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case BlockCyclic:
		return "block-cyclic"
	case Arbitrary:
		return "arbitrary"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Map describes the distribution of global indices 0..n-1 over ranks
// 0..size-1. Maps are immutable after construction and safe for concurrent
// use by all ranks.
type Map struct {
	n    int
	size int
	kind Kind
	bs   int // block size for BlockCyclic

	// Arbitrary maps carry explicit tables; nil otherwise.
	owner    []int   // global -> owning rank
	localIdx []int   // global -> local index on owner
	globals  [][]int // rank -> sorted list of owned globals
	counts   []int   // rank -> local count (all kinds, precomputed)
	starts   []int   // Block maps: rank r owns [starts[r], starts[r+1]); nil otherwise
}

// NewBlock returns a balanced contiguous block map: the first n%size ranks
// own ceil(n/size) elements, the rest floor(n/size).
func NewBlock(n, size int) *Map {
	checkArgs(n, size)
	m := &Map{n: n, size: size, kind: Block}
	m.counts = make([]int, size)
	m.starts = make([]int, size+1)
	base, rem := n/size, n%size
	for r := 0; r < size; r++ {
		m.counts[r] = base
		if r < rem {
			m.counts[r]++
		}
		m.starts[r+1] = m.starts[r] + m.counts[r]
	}
	return m
}

// NewCyclic returns a cyclic (round-robin) map: global g lives on rank g%size
// at local index g/size.
func NewCyclic(n, size int) *Map {
	checkArgs(n, size)
	m := &Map{n: n, size: size, kind: Cyclic}
	m.counts = make([]int, size)
	for r := 0; r < size; r++ {
		m.counts[r] = (n - r + size - 1) / size
	}
	return m
}

// NewBlockCyclic returns a block-cyclic map with block size bs: consecutive
// blocks of bs globals are dealt round-robin to ranks.
func NewBlockCyclic(n, size, bs int) *Map {
	checkArgs(n, size)
	if bs <= 0 {
		panic(fmt.Sprintf("distmap: block size must be positive, got %d", bs))
	}
	m := &Map{n: n, size: size, kind: BlockCyclic, bs: bs}
	m.counts = make([]int, size)
	nblocks := (n + bs - 1) / bs
	for b := 0; b < nblocks; b++ {
		lo := b * bs
		hi := min(lo+bs, n)
		m.counts[b%size] += hi - lo
	}
	return m
}

// NewArbitrary builds a map from an explicit owners table: owners[g] is the
// rank owning global g. Local indices on each rank follow increasing global
// order, matching how ODIN assigns local segments.
func NewArbitrary(owners []int, size int) *Map {
	n := len(owners)
	checkArgs(n, size)
	m := &Map{n: n, size: size, kind: Arbitrary}
	m.owner = make([]int, n)
	copy(m.owner, owners)
	m.localIdx = make([]int, n)
	m.counts = make([]int, size)
	m.globals = make([][]int, size)
	for g, r := range m.owner {
		if r < 0 || r >= size {
			panic(fmt.Sprintf("distmap: owners[%d]=%d out of range [0,%d)", g, r, size))
		}
		m.localIdx[g] = m.counts[r]
		m.counts[r]++
		m.globals[r] = append(m.globals[r], g)
	}
	return m
}

func checkArgs(n, size int) {
	if n < 0 {
		panic(fmt.Sprintf("distmap: global count must be non-negative, got %d", n))
	}
	if size <= 0 {
		panic(fmt.Sprintf("distmap: rank count must be positive, got %d", size))
	}
}

// NumGlobal returns the global element count N.
func (m *Map) NumGlobal() int { return m.n }

// NumRanks returns the number of ranks P the map distributes over.
func (m *Map) NumRanks() int { return m.size }

// Kind returns the distribution family.
func (m *Map) Kind() Kind { return m.kind }

// LocalCount returns the number of globals owned by the given rank.
func (m *Map) LocalCount(rank int) int {
	m.checkRank(rank)
	return m.counts[rank]
}

// MaxLocalCount returns the largest per-rank count (load-imbalance metric).
func (m *Map) MaxLocalCount() int {
	mx := 0
	for _, c := range m.counts {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Owner returns the rank owning global index g.
func (m *Map) Owner(g int) int {
	m.checkGlobal(g)
	switch m.kind {
	case Block:
		base, rem := m.n/m.size, m.n%m.size
		// First rem ranks own base+1 elements.
		cut := rem * (base + 1)
		if g < cut {
			return g / (base + 1)
		}
		if base == 0 {
			return rem - 1 // unreachable: g >= cut and base==0 implies g >= n
		}
		return rem + (g-cut)/base
	case Cyclic:
		return g % m.size
	case BlockCyclic:
		return (g / m.bs) % m.size
	default:
		return m.owner[g]
	}
}

// GlobalToLocal returns the owning rank and the local index of global g.
func (m *Map) GlobalToLocal(g int) (rank, local int) {
	m.checkGlobal(g)
	switch m.kind {
	case Block:
		r := m.Owner(g)
		lo, _ := m.BlockRange(r)
		return r, g - lo
	case Cyclic:
		return g % m.size, g / m.size
	case BlockCyclic:
		b := g / m.bs
		r := b % m.size
		return r, (b/m.size)*m.bs + g%m.bs
	default:
		return m.owner[g], m.localIdx[g]
	}
}

// LocalOn returns the local index of global g on rank and whether rank owns
// g; when it does not, local is -1. It is the ownership query of matrix
// assembly, asked once per inserted entry and per stored column, so for a
// block map it is a range test against the precomputed rank offsets, with
// no division. The other kinds use the GlobalToLocal formula or table.
func (m *Map) LocalOn(rank, g int) (local int, ok bool) {
	m.checkRank(rank)
	m.checkGlobal(g)
	switch m.kind {
	case Block:
		if lo := m.starts[rank]; g >= lo && g < m.starts[rank+1] {
			return g - lo, true
		}
		return -1, false
	case Cyclic:
		if g%m.size == rank {
			return g / m.size, true
		}
		return -1, false
	case BlockCyclic:
		if b := g / m.bs; b%m.size == rank {
			return (b/m.size)*m.bs + g%m.bs, true
		}
		return -1, false
	default:
		if m.owner[g] == rank {
			return m.localIdx[g], true
		}
		return -1, false
	}
}

// LocalToGlobal returns the global index of the l-th local element on rank.
func (m *Map) LocalToGlobal(rank, l int) int {
	m.checkRank(rank)
	if l < 0 || l >= m.counts[rank] {
		panic(fmt.Sprintf("distmap: local index %d out of range [0,%d) on rank %d", l, m.counts[rank], rank))
	}
	switch m.kind {
	case Block:
		lo, _ := m.BlockRange(rank)
		return lo + l
	case Cyclic:
		return l*m.size + rank
	case BlockCyclic:
		blk := l / m.bs
		return (blk*m.size+rank)*m.bs + l%m.bs
	default:
		return m.globals[rank][l]
	}
}

// BlockRange returns the half-open global range [lo,hi) owned by rank. It is
// only meaningful for Block maps and panics otherwise.
func (m *Map) BlockRange(rank int) (lo, hi int) {
	m.checkRank(rank)
	if m.kind != Block {
		panic("distmap: BlockRange requires a block map")
	}
	return m.starts[rank], m.starts[rank+1]
}

// GlobalsOn returns the sorted list of globals owned by rank. The returned
// slice is freshly allocated for uniform maps and must not be mutated for
// arbitrary maps.
func (m *Map) GlobalsOn(rank int) []int {
	m.checkRank(rank)
	if m.kind == Arbitrary {
		return m.globals[rank]
	}
	out := make([]int, m.counts[rank])
	for l := range out {
		out[l] = m.LocalToGlobal(rank, l)
	}
	return out
}

// IsContiguous reports whether every rank's globals form one contiguous run,
// which enables the zero-copy bridge to tpetra vectors.
func (m *Map) IsContiguous() bool {
	switch m.kind {
	case Block:
		return true
	case Cyclic:
		return m.size == 1
	case BlockCyclic:
		return m.size == 1 || m.bs >= m.n
	default:
		for r := 0; r < m.size; r++ {
			gs := m.globals[r]
			for i := 1; i < len(gs); i++ {
				if gs[i] != gs[i-1]+1 {
					return false
				}
			}
		}
		return true
	}
}

// SameAs reports whether two maps describe the identical distribution — the
// conformability test ODIN uses to decide whether a binary ufunc needs
// communication.
func (m *Map) SameAs(o *Map) bool {
	if m == o {
		return true
	}
	if m == nil || o == nil || m.n != o.n || m.size != o.size {
		return false
	}
	if m.kind == o.kind {
		switch m.kind {
		case Block, Cyclic:
			return true
		case BlockCyclic:
			return m.bs == o.bs
		}
	}
	// Fall back to element-wise comparison (covers arbitrary maps that happen
	// to equal uniform ones, and block-cyclic degenerate cases).
	for g := 0; g < m.n; g++ {
		r1, l1 := m.GlobalToLocal(g)
		r2, l2 := o.GlobalToLocal(g)
		if r1 != r2 || l1 != l2 {
			return false
		}
	}
	return true
}

// Imbalance returns max local count divided by the ideal N/P; 1.0 is perfect.
func (m *Map) Imbalance() float64 {
	if m.n == 0 {
		return 1.0
	}
	ideal := float64(m.n) / float64(m.size)
	return float64(m.MaxLocalCount()) / ideal
}

func (m *Map) String() string {
	return fmt.Sprintf("Map{%s, n=%d, ranks=%d}", m.kind, m.n, m.size)
}

func (m *Map) checkRank(rank int) {
	if rank < 0 || rank >= m.size {
		panic(fmt.Sprintf("distmap: rank %d out of range [0,%d)", rank, m.size))
	}
}

func (m *Map) checkGlobal(g int) {
	if g < 0 || g >= m.n {
		panic(fmt.Sprintf("distmap: global index %d out of range [0,%d)", g, m.n))
	}
}

// OwnersTable materializes the full global->owner table for any map kind.
func (m *Map) OwnersTable() []int {
	out := make([]int, m.n)
	for g := range out {
		out[g] = m.Owner(g)
	}
	return out
}
