package distmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func allKinds(n, size int) map[string]*Map {
	ms := map[string]*Map{
		"block":         NewBlock(n, size),
		"cyclic":        NewCyclic(n, size),
		"blockcyclic-1": NewBlockCyclic(n, size, 1),
		"blockcyclic-3": NewBlockCyclic(n, size, 3),
		"blockcyclic-8": NewBlockCyclic(n, size, 8),
	}
	if n > 0 {
		rng := rand.New(rand.NewSource(42))
		owners := make([]int, n)
		for i := range owners {
			owners[i] = rng.Intn(size)
		}
		// Guarantee every rank appears when possible so counts are non-trivial.
		for r := 0; r < size && r < n; r++ {
			owners[r] = r
		}
		ms["arbitrary"] = NewArbitrary(owners, size)
	}
	return ms
}

// TestBijection is the core property: LocalToGlobal and GlobalToLocal are
// mutually inverse and cover the global space exactly once.
func TestBijection(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100} {
		for _, p := range []int{1, 2, 3, 4, 7, 8} {
			for name, m := range allKinds(n, p) {
				seen := make([]bool, n)
				total := 0
				for r := 0; r < p; r++ {
					total += m.LocalCount(r)
					for l := 0; l < m.LocalCount(r); l++ {
						g := m.LocalToGlobal(r, l)
						if seen[g] {
							t.Fatalf("%s n=%d p=%d: global %d covered twice", name, n, p, g)
						}
						seen[g] = true
						r2, l2 := m.GlobalToLocal(g)
						if r2 != r || l2 != l {
							t.Fatalf("%s n=%d p=%d: G2L(L2G(%d,%d)) = (%d,%d)", name, n, p, r, l, r2, l2)
						}
						if m.Owner(g) != r {
							t.Fatalf("%s: Owner(%d)=%d want %d", name, g, m.Owner(g), r)
						}
					}
				}
				if total != n {
					t.Fatalf("%s n=%d p=%d: counts sum to %d", name, n, p, total)
				}
			}
		}
	}
}

func TestBijectionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		p := 1 + rng.Intn(9)
		for _, m := range allKinds(n, p) {
			for g := 0; g < n; g++ {
				r, l := m.GlobalToLocal(g)
				if m.LocalToGlobal(r, l) != g {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalOnMatchesGlobalToLocal: the assembly ownership query answers
// (l, true) exactly where GlobalToLocal puts g, on rank r at local l, and
// (-1, false) on every other rank — every (rank, g) on every kind, rank
// counts past n (ranks that own nothing) included — and panics on an
// out-of-range global or rank as GlobalToLocal does.
func TestLocalOnMatchesGlobalToLocal(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100} {
		for _, p := range []int{1, 2, 3, 4, 7, 8, 130} {
			for name, m := range allKinds(n, p) {
				for g := 0; g < n; g++ {
					owner, local := m.GlobalToLocal(g)
					for r := 0; r < p; r++ {
						l, ok := m.LocalOn(r, g)
						if ok != (r == owner) || (ok && l != local) || (!ok && l != -1) {
							t.Fatalf("%s n=%d p=%d: LocalOn(%d, %d) = (%d, %v), GlobalToLocal = (%d, %d)",
								name, n, p, r, g, l, ok, owner, local)
						}
					}
				}
				for _, bad := range [][2]int{{0, -1}, {0, n}, {-1, 0}, {p, 0}} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s n=%d p=%d: LocalOn(%d, %d) did not panic", name, n, p, bad[0], bad[1])
							}
						}()
						m.LocalOn(bad[0], bad[1])
					}()
				}
			}
		}
	}
}

func TestBlockRanges(t *testing.T) {
	m := NewBlock(10, 3) // counts 4,3,3
	wantCounts := []int{4, 3, 3}
	wantLo := []int{0, 4, 7}
	for r := 0; r < 3; r++ {
		if m.LocalCount(r) != wantCounts[r] {
			t.Errorf("LocalCount(%d)=%d want %d", r, m.LocalCount(r), wantCounts[r])
		}
		lo, hi := m.BlockRange(r)
		if lo != wantLo[r] || hi != wantLo[r]+wantCounts[r] {
			t.Errorf("BlockRange(%d)=[%d,%d)", r, lo, hi)
		}
	}
}

func TestBlockRangePanicsOnNonBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCyclic(10, 2).BlockRange(0)
}

func TestCyclicLayout(t *testing.T) {
	m := NewCyclic(7, 3)
	// globals on rank 0: 0,3,6; rank 1: 1,4; rank 2: 2,5
	want := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	for r, w := range want {
		got := m.GlobalsOn(r)
		if len(got) != len(w) {
			t.Fatalf("rank %d globals %v want %v", r, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("rank %d globals %v want %v", r, got, w)
			}
		}
	}
}

func TestBlockCyclicLayout(t *testing.T) {
	m := NewBlockCyclic(10, 2, 2)
	// blocks: [0,1]->r0, [2,3]->r1, [4,5]->r0, [6,7]->r1, [8,9]->r0
	want0 := []int{0, 1, 4, 5, 8, 9}
	got0 := m.GlobalsOn(0)
	if len(got0) != len(want0) {
		t.Fatalf("rank0 %v", got0)
	}
	for i := range want0 {
		if got0[i] != want0[i] {
			t.Fatalf("rank0 %v want %v", got0, want0)
		}
	}
	if m.bs != 2 {
		t.Fatal("BlockSize")
	}
}

func TestArbitraryLocalIndexing(t *testing.T) {
	m := NewArbitrary([]int{0, 1, 2, 1, 2, 0}, 3)
	if m.Owner(5) != 0 || m.Owner(3) != 1 || m.Owner(4) != 2 {
		t.Fatal("ownership wrong")
	}
	for r := 0; r < m.NumRanks(); r++ {
		if !sort.IntsAreSorted(m.GlobalsOn(r)) {
			t.Fatalf("globals on rank %d not sorted: %v", r, m.GlobalsOn(r))
		}
	}
	r, l := m.GlobalToLocal(5)
	if r != 0 || l != 1 {
		t.Fatalf("G2L(5) = (%d,%d)", r, l)
	}
}

func TestArbitraryOwnerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range owner")
		}
	}()
	NewArbitrary([]int{0, 5}, 2)
}

func TestSameAs(t *testing.T) {
	a := NewBlock(100, 4)
	b := NewBlock(100, 4)
	if !a.SameAs(b) || !a.SameAs(a) {
		t.Fatal("identical block maps must be SameAs")
	}
	if a.SameAs(NewCyclic(100, 4)) {
		t.Fatal("block vs cyclic must differ")
	}
	if a.SameAs(NewBlock(100, 5)) || a.SameAs(NewBlock(99, 4)) {
		t.Fatal("different shape must differ")
	}
	// An arbitrary map that reproduces the block layout is SameAs block.
	owners := a.OwnersTable()
	arb := NewArbitrary(owners, 4)
	if !arb.SameAs(a) || !a.SameAs(arb) {
		t.Fatal("equivalent arbitrary map must be SameAs block map")
	}
	if a.SameAs(nil) {
		t.Fatal("nil must differ")
	}
}

func TestIsContiguous(t *testing.T) {
	if !NewBlock(10, 3).IsContiguous() {
		t.Fatal("block must be contiguous")
	}
	if NewCyclic(10, 3).IsContiguous() {
		t.Fatal("cyclic with p>1 must not be contiguous")
	}
	if !NewCyclic(10, 1).IsContiguous() {
		t.Fatal("single-rank cyclic is contiguous")
	}
	if NewBlockCyclic(10, 2, 2).IsContiguous() {
		t.Fatal("block-cyclic p=2 bs=2 not contiguous")
	}
	if !NewBlockCyclic(10, 2, 100).IsContiguous() {
		t.Fatal("block-cyclic with bs>=n is contiguous")
	}
	if !NewArbitrary([]int{0, 0, 1, 1}, 2).IsContiguous() {
		t.Fatal("contiguous arbitrary map")
	}
	if NewArbitrary([]int{0, 1, 0, 1}, 2).IsContiguous() {
		t.Fatal("interleaved arbitrary map is not contiguous")
	}
}

func TestImbalance(t *testing.T) {
	if got := NewBlock(100, 4).Imbalance(); got != 1.0 {
		t.Fatalf("balanced block imbalance = %g", got)
	}
	m := NewArbitrary([]int{0, 0, 0, 1}, 2) // 3 vs 1, ideal 2
	if got := m.Imbalance(); got != 1.5 {
		t.Fatalf("imbalance = %g want 1.5", got)
	}
	if got := NewBlock(0, 4).Imbalance(); got != 1.0 {
		t.Fatalf("empty map imbalance = %g", got)
	}
}

func TestBoundsPanics(t *testing.T) {
	m := NewBlock(10, 2)
	for name, fn := range map[string]func(){
		"owner-neg":    func() { m.Owner(-1) },
		"owner-big":    func() { m.Owner(10) },
		"l2g-bad-rank": func() { m.LocalToGlobal(9, 0) },
		"l2g-bad-loc":  func() { m.LocalToGlobal(0, 99) },
		"count-bad":    func() { m.LocalCount(-1) },
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

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"neg-n":   func() { NewBlock(-1, 2) },
		"zero-p":  func() { NewBlock(10, 0) },
		"zero-bs": func() { NewBlockCyclic(10, 2, 0) },
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

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Block: "block", Cyclic: "cyclic", BlockCyclic: "block-cyclic", Arbitrary: "arbitrary", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind.String() = %q want %q", k.String(), want)
		}
	}
	m := NewBlock(4, 2)
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMaxLocalCount(t *testing.T) {
	m := NewBlock(10, 3)
	if m.MaxLocalCount() != 4 {
		t.Fatalf("MaxLocalCount=%d", m.MaxLocalCount())
	}
}

func TestOwnersTableMatchesOwner(t *testing.T) {
	for name, m := range allKinds(37, 5) {
		tab := m.OwnersTable()
		for g, r := range tab {
			if m.Owner(g) != r {
				t.Fatalf("%s: OwnersTable[%d]=%d Owner=%d", name, g, r, m.Owner(g))
			}
		}
	}
}
