// Package xrand provides a math/rand-compatible random source whose
// seeding is O(1). Source produces the exact bit stream of Go's default
// rand.NewSource — the same Mitchell/Reeds additive lagged Fibonacci
// generator, seeded by the same multiplicative LCG — but it seeds by
// jump-ahead instead of running the seeding recurrence.
//
// math/rand fills the 607-word register by stepping the LCG
// x[k+1] = 48271·x[k] mod (2^31−1) 1,841 times (Schrage's exact
// modular multiply), so x[k] = 48271^k·x[0] mod (2^31−1) and every
// post-seed word is a closed form of the seed:
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// Seed therefore only records x[0] and clears a 607-bit bitmap of
// materialized words; a draw computes its feed and tap words from the
// precomputed powers the first time it reads them. A draw costs at
// most two word computations, and seeding is constant-time.
//
// That matters because the experiment harness derives every trial's
// RNG seed purely from (base seed, trial index) — the determinism
// contract of DESIGN.md §8 — and re-seeds one pooled generator per
// trial, while a trial draws only a handful of values (about 6 in a
// cache-benchmark trial, about 21 in an attack trial).
//
// Equivalence with math/rand is pinned by TestStreamMatchesMathRand;
// the vendored rngCooked table (cooked.go) is the piece that makes the
// streams bit-identical.
package xrand

// Generator constants, identical to math/rand's rngSource.
const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1

	// seedLCG is the seeding LCG's multiplier; seedSkip is how many of
	// its outputs math/rand discards before the first register word.
	seedLCG  = 48271
	seedSkip = 20
)

// wordPow[i] holds the LCG powers 48271^(21+3i+j) mod (2^31−1),
// j = 0..2: the multipliers that take x[0] to the three LCG outputs
// that make up register word i.
var wordPow [rngLen][3]uint32

func init() {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = mulmod(p, seedLCG)
	}
	for i := range wordPow {
		for j := range wordPow[i] {
			wordPow[i][j] = uint32(p)
			p = mulmod(p, seedLCG)
		}
	}
}

// mulmod returns a·b mod 2^31−1 for a, b in [1, 2^31−2]. Because
// 2^31 ≡ 1 (mod 2^31−1), folding the product's bits above 31 onto its
// low 31 bits keeps the residue: the first fold leaves a value below
// 2·(2^31−1), the second brings it into range without a branch (the
// modulus is prime, so the residue is never 0 and the fold never
// lands on 2^31−1 itself).
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// Source is a rand.Source64 implementing the Mitchell/Reeds generator
// with jump-ahead seeding. It is not safe for concurrent use (neither
// is rand.Rand); pooled trial states own one Source each.
type Source struct {
	tap  int
	feed int
	// x0 is the seeding LCG's start value, in [1, 2^31−2].
	x0 uint64
	// live has bit i set once vec[i] holds the register's current
	// word; a clear bit means vec[i] is still its post-seed closed form.
	live [(rngLen + 63) / 64]uint64
	vec  [rngLen]int64
}

// NewSource returns a Source seeded with seed, stream-identical to
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed initializes the generator to the deterministic state
// rand.NewSource(seed) would produce.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	s.x0 = uint64(x)
	s.live = [len(s.live)]uint64{}
}

// word returns register word i, computing its post-seed value the
// first time it is read after Seed.
func (s *Source) word(i int) int64 {
	bit := uint64(1) << (i & 63)
	if s.live[i>>6]&bit != 0 {
		return s.vec[i]
	}
	p := &wordPow[i]
	u := int64(mulmod(uint64(p[0]), s.x0))<<40 ^
		int64(mulmod(uint64(p[1]), s.x0))<<20 ^
		int64(mulmod(uint64(p[2]), s.x0)) ^
		rngCooked[i]
	s.vec[i] = u
	s.live[i>>6] |= bit
	return u
}

// Int63 returns a non-negative 63-bit integer, identical to
// math/rand's source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 advances the lagged Fibonacci register and returns the next
// 64-bit value, identical to math/rand's source.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}
