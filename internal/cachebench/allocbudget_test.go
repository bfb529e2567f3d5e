// Steady-state allocation budget for one benchmark trial. The race
// detector instruments allocations and would make the counts
// meaningless, so the budget is only enforced in non-race runs.

//go:build !race

package cachebench

import (
	"testing"

	"vpsec/internal/cpu"
)

// TestTrialSteadyStateAllocs: once the pattern's programs are compiled
// and a trial rig is pooled, a trial allocates nothing — the hierarchy
// and the re-seeded jitter generator are both recycled.
func TestTrialSteadyStateAllocs(t *testing.T) {
	p := Pattern{FAA, VU, AA, RelLine}
	noise := cpu.DefaultNoise()
	seed := int64(1)
	trial := func() {
		seed += 2
		if _, err := p.Trial(seed&4 == 0, seed, noise); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		trial()
	}
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Errorf("Pattern.Trial allocates %.2f objects/trial in steady state, want 0", avg)
	}
}
