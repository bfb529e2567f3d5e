package mem

import "testing"

// These tests pin the eviction and aliasing behaviors the three-step
// cache-vulnerability benchmark (internal/cachebench) builds on. The
// benchmark's address layout uses a 32 KiB stride, which is congruent
// in both the 64-set L1 (64*64 B = 4 KiB period) and the 512-set L2
// (512*64 B = 32 KiB period), and its "alias" steps touch 8 such lines
// — exactly the associativity — to guarantee eviction under LRU. Each
// behavior below corresponds to a footnote in the vulnerability-matrix
// report; if one of these changes, the matrix changes meaning.
const (
	conflictBase   = 0x40000 // cachebench.BaseA
	conflictStride = 0x8000  // cachebench.AliasStride: congruent in L1 and L2
	conflictWays   = 8       // both levels are 8-way
)

// benchHierarchy is the cachebench configuration: the default
// hierarchy without its TLB, no prefetcher.
func benchHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h := DefaultHierarchy()
	h.TLB = nil
	return h
}

// alias returns the k-th conflict-set member (k=0 is the base line).
func alias(k int) uint64 { return conflictBase + uint64(k)*conflictStride }

// TestConflictSetEviction is the table of access patterns the
// three-step model distinguishes: which sequences displace the base
// line from each level, and which leave it resident.
func TestConflictSetEviction(t *testing.T) {
	cases := []struct {
		name   string
		script func(h *Hierarchy)
		inL1   bool
		inL2   bool
	}{
		{
			// A full 8-line congruent set fills every way on top of the
			// base line: LRU must displace it from both 8-way levels.
			name: "full conflict set evicts from L1 and L2",
			script: func(h *Hierarchy) {
				for k := 1; k <= conflictWays; k++ {
					h.Access(alias(k), true)
				}
			},
			inL1: false, inL2: false,
		},
		{
			// One congruent line lands in a free way; with 8 ways it
			// cannot displace anything. This is why single-line "set"
			// conflicts report safe in the matrix.
			name: "single congruent line does not evict",
			script: func(h *Hierarchy) {
				h.Access(alias(1), true)
			},
			inL1: true, inL2: true,
		},
		{
			name: "seven congruent lines do not evict (one short of the ways)",
			script: func(h *Hierarchy) {
				for k := 1; k < conflictWays; k++ {
					h.Access(alias(k), true)
				}
			},
			inL1: true, inL2: true,
		},
		{
			// An LRU refresh between alias fills keeps the base line the
			// most recent in L1: the eighth fill victimizes an alias
			// instead. The refresh is served by L1 and never reaches L2,
			// so L2's recency is NOT updated and its copy is displaced —
			// the L1 filters the reference stream the L2's LRU sees.
			name: "LRU refresh protects the base line in L1 only",
			script: func(h *Hierarchy) {
				for k := 1; k < conflictWays; k++ {
					h.Access(alias(k), true)
				}
				h.Access(conflictBase, true) // L1 hit; invisible to L2
				h.Access(alias(conflictWays), true)
			},
			inL1: true, inL2: false,
		},
		{
			// A non-congruent line (different set) never disturbs the
			// base line no matter how often it is touched.
			name: "non-congruent traffic is invisible",
			script: func(h *Hierarchy) {
				for i := 0; i < 4*conflictWays; i++ {
					h.Access(conflictBase+192, true)
				}
			},
			inL1: true, inL2: true,
		},
		{
			// clflush removes the line from every level at once.
			name: "flush removes the line from both levels",
			script: func(h *Hierarchy) {
				h.Flush(conflictBase)
			},
			inL1: false, inL2: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := benchHierarchy(t)
			h.Access(conflictBase, true) // establish the base line
			c.script(h)
			if got := h.L1.Contains(conflictBase); got != c.inL1 {
				t.Errorf("L1 residency = %v, want %v", got, c.inL1)
			}
			if got := h.L2.Contains(conflictBase); got != c.inL2 {
				t.Errorf("L2 residency = %v, want %v", got, c.inL2)
			}
		})
	}
}

// TestConflictStrideCongruence pins the arithmetic the layout relies
// on: the 32 KiB stride maps every alias line into the base line's set
// at both geometries, on distinct lines.
func TestConflictStrideCongruence(t *testing.T) {
	for _, cfg := range []CacheConfig{defaultL1, defaultL2} {
		c, err := NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseSet, baseTag := c.index(conflictBase)
		for k := 1; k <= conflictWays; k++ {
			set, tag := c.index(alias(k))
			if set != baseSet {
				t.Errorf("%s: alias %d in set %d, base in set %d", cfg.Name, k, set, baseSet)
			}
			if tag == baseTag {
				t.Errorf("%s: alias %d shares the base tag", cfg.Name, k)
			}
		}
	}
}

// TestLRUDomino: walking W+1 congruent lines in order and re-probing
// in the same order misses every time — the classic LRU thrash. The
// benchmark avoids this by sizing its eviction set exactly W, so a
// prime step leaves the aliases resident for the probe step.
func TestLRUDomino(t *testing.T) {
	h := benchHierarchy(t)
	n := conflictWays + 1
	for k := 0; k < n; k++ {
		h.Access(alias(k), true)
	}
	for k := 0; k < n; k++ {
		if _, served := h.Access(alias(k), true); served != LevelMem {
			t.Fatalf("re-probe of line %d served from %s, want mem (LRU thrash)", k, served)
		}
	}
	// The exact-W set, by contrast, re-probes entirely from cache.
	h.Reset()
	for k := 0; k < conflictWays; k++ {
		h.Access(alias(k), true)
	}
	for k := 0; k < conflictWays; k++ {
		if _, served := h.Access(alias(k), true); served == LevelMem {
			t.Fatalf("re-probe of line %d went to memory with an exact-ways set", k)
		}
	}
}

// TestL2NonInclusive: the two levels evict independently. Filling the
// L1 set with congruent lines displaces the base line from L1 only —
// no back-invalidation — so it still serves from L2. This is the
// matrix footnote about non-inclusive L2 behavior.
func TestL2NonInclusive(t *testing.T) {
	h := benchHierarchy(t)
	h.Access(conflictBase, true)
	// 4 KiB stride: congruent in the 64-set L1, distinct sets in the
	// 512-set L2, so only the L1 copy is displaced.
	for k := 1; k <= conflictWays; k++ {
		h.Access(conflictBase+uint64(k)*0x1000, true)
	}
	if h.L1.Contains(conflictBase) {
		t.Fatal("base line survived an L1 conflict fill")
	}
	if !h.L2.Contains(conflictBase) {
		t.Fatal("L1 eviction back-invalidated the L2 copy (hierarchy is not meant to be inclusive)")
	}
	if _, served := h.Access(conflictBase, true); served != LevelL2 {
		t.Fatalf("post-eviction access served from %s, want L2", served)
	}
}

// TestStoreBypassesCaches: Memory.Write does not touch cache state —
// the benchmark's result store cannot perturb the timing it reports,
// and write-based channels are out of the model's scope.
func TestStoreBypassesCaches(t *testing.T) {
	h := benchHierarchy(t)
	h.Mem.Write(conflictBase, 7)
	if h.Cached(conflictBase) {
		t.Fatal("a raw memory write installed a cache line")
	}
	if got := h.Mem.Peek(conflictBase); got != 7 {
		t.Fatalf("Peek = %d, want 7", got)
	}
}
