package xrand

import (
	"fmt"
	"math/rand"
	"testing"
)

// seeds exercises the seeding edge cases: zero (remapped to the fixed
// nonzero start), negatives (mod-adjusted), values at and beyond the
// int32 modulus, and ordinary trial-harness seeds.
var seeds = []int64{
	0, 1, 2, 3, -1, -12345, 42, 89482311,
	int32max - 1, int32max, int32max + 1, 2 * int32max,
	-int32max, 1 << 40, -(1 << 40), 987654321,
}

// TestStreamMatchesMathRand pins the bit-identity contract: a
// rand.Rand over Source produces exactly the stream of
// rand.New(rand.NewSource(seed)) across every draw kind the simulator
// uses. If this ever fails, the vendored generator has diverged from
// math/rand and the determinism guarantee (DESIGN.md §8) is void.
//
// The raw draws run past three register lengths, so they cross the
// feed/tap wrap where words computed lazily from the seed meet words
// the generator has already written back.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		got := rand.New(NewSource(seed))
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 3*rngLen+100; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
			}
		}
		// Int63n consumes a variable number of raw draws; Float64 can
		// retry internally. Both must stay in lockstep.
		for i := 0; i < 500; i++ {
			if g, w := got.Int63n(13), want.Int63n(13); g != w {
				t.Fatalf("seed %d draw %d: Int63n = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestReseedRestoresExactState: re-seeding a used Source, at any
// point of its stream, must restore the exact post-seed state —
// indistinguishable from a fresh math/rand source. The offsets stop
// before, at and past the first feed/tap wrap and past a full register
// cycle, so a reseed finds the register partly and wholly written back.
func TestReseedRestoresExactState(t *testing.T) {
	offsets := []int{0, 1, 5, rngTap, rngLen - rngTap, rngLen, rngLen + 1, 2*rngLen + 3}
	s := NewSource(7)
	r := rand.New(s)
	for _, off := range offsets {
		for _, seed := range seeds {
			for i := 0; i < off; i++ {
				r.Int63()
			}
			r.Seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 2*rngLen; i++ {
				if g, w := r.Int63(), want.Int63(); g != w {
					t.Fatalf("reseed %d after %d draws, draw %d: %d, want %d", seed, off, i, g, w)
				}
			}
		}
	}
}

// benchSink keeps the benchmarked draws observable.
var benchSink uint64

// BenchmarkSeedDraw measures one trial's RNG cost: a reseed followed by
// the trial's draws — about 6 in a cache-benchmark trial and about 21
// in an attack trial.
func BenchmarkSeedDraw(b *testing.B) {
	for _, draws := range []int{6, 21} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			s := NewSource(1)
			for i := 0; i < b.N; i++ {
				s.Seed(int64(i))
				for d := 0; d < draws; d++ {
					benchSink += s.Uint64()
				}
			}
		})
	}
}
