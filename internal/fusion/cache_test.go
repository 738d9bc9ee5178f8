package fusion

// Single-flight semantics of the compiled-program cache: goroutines racing
// on a cold key must elect exactly one compiler (the sole counted miss);
// everyone else counts a hit and receives the same *vmProgram. Run under
// -race in verify.sh, this also guards the lookup/insert path itself.

import (
	"fmt"
	"sync"
	"testing"
)

// slotChain builds a structurally distinct cacheable expression per depth:
// s0*s1 + s0 + s0 + ... (depth extra adds). Fresh Expr nodes every call, so
// sharing can only come from the cache key.
func slotChain(depth int) *Expr {
	e := SliceSlot(0).Mul(SliceSlot(1))
	for i := 0; i < depth; i++ {
		e = e.Add(SliceSlot(0))
	}
	return e
}

// TestPlanCacheSingleFlight pins exactly-one-miss per cold key: G goroutines
// all compile a structurally equal expression from a cold cache; one miss,
// G-1 hits, and a single shared program must result.
func TestPlanCacheSingleFlight(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	const G = 16
	progs := make([]*vmProgram, G)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := slotChain(3)
			<-start
			progs[i] = Analyze(e).prog
		}(i)
	}
	close(start)
	wg.Wait()
	hits, misses := PlanCacheStats()
	if misses != 1 {
		t.Errorf("misses = %d after %d racing compiles of one key, want exactly 1", misses, G)
	}
	if hits != G-1 {
		t.Errorf("hits = %d, want %d", hits, G-1)
	}
	for i := 1; i < G; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a distinct program for a shared key", i)
		}
	}
}

// TestPlanCacheConcurrentKeys sweeps G goroutines over K distinct keys each:
// the counters must land on exactly K misses and K*(G-1) hits no matter how
// the compilations interleave.
func TestPlanCacheConcurrentKeys(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	const G, K = 8, 12
	var wg sync.WaitGroup
	errs := make([]error, G)
	start := make(chan struct{})
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for k := 0; k < K; k++ {
				if p := Analyze(slotChain(k)).prog; p == nil {
					errs[i] = fmt.Errorf("nil program for depth %d", k)
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	hits, misses := PlanCacheStats()
	if misses != K {
		t.Errorf("misses = %d over %d distinct keys, want exactly %d", misses, K, K)
	}
	if hits != K*(G-1) {
		t.Errorf("hits = %d, want %d", hits, K*(G-1))
	}
}
