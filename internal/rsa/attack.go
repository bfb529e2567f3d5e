package rsa

import (
	"fmt"
	"math/rand"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/mpi"
	"vpsec/internal/predictor"
)

// AttackOptions parameterizes the key-recovery experiment.
type AttackOptions struct {
	Confidence int   // VPS confidence number; 0 means 4
	Seed       int64 // RNG seed
	TrainRuns  int   // victim invocations before the measured one; 0 means 1
	NoVP       bool  // control experiment without a value predictor

	// MakePredictor overrides the default LVP with any predictor (used
	// by the FCM ablation: context predictors learn the pointer swap's
	// alternation and change the leak).
	MakePredictor func() (predictor.Predictor, error)

	ClockHz   float64 // 0 means 3 GHz
	SyncEpoch float64 // receiver sync cycles per leaked bit; 0 means 330,000

	Noise cpu.Noise // zero value means the default jitter
}

func (o *AttackOptions) setDefaults() {
	if o.Confidence == 0 {
		o.Confidence = 4
	}
	if o.TrainRuns == 0 {
		o.TrainRuns = 1
	}
	if o.ClockHz == 0 {
		o.ClockHz = 3e9
	}
	if o.SyncEpoch == 0 {
		o.SyncEpoch = 330_000
	}
	if o.Noise == (cpu.Noise{}) {
		o.Noise = cpu.DefaultNoise()
	}
}

// IterObs is one point of Fig. 7: the receiver's timing observation
// for one exponent iteration, labeled with the true bit.
type IterObs struct {
	Iter   int
	Cycles float64
	EBit   uint
}

// AttackResult is the outcome of one key-recovery run.
type AttackResult struct {
	Exponent  uint64 // the true secret
	Recovered uint64 // attacker's reconstruction
	Bits      int

	BitSuccess float64   // fraction of bits classified correctly (95.7% in the paper)
	Series     []IterObs // Fig. 7: per-iteration observations
	Threshold  float64   // classifier threshold used

	RateBps  float64 // modeled transmission rate (9.65 Kbps in the paper)
	ResultOK bool    // victim's modexp output matches the mpi golden model
}

// Attack runs the Fig. 6 victim under the value-predictor attack and
// recovers the exponent from per-iteration timing (Fig. 7): 1-bits —
// whose pointer swap defeats the predictor's confidence — run slow;
// 0-bits — whose balanced load is value-predicted — run fast.
func Attack(cfg VictimConfig, opt AttackOptions) (AttackResult, error) {
	prog, err := BuildVictim(cfg)
	if err != nil {
		return AttackResult{}, err
	}
	want := mpi.ModExp(mpi.FromUint64(cfg.Base),
		mpi.FromUint64(cfg.Exponent&bitsMask(cfg.bits())), mpi.FromUint64(cfg.Mod))
	return runVictimAttack(prog, cfg.bits(), cfg.Exponent, ResultsBase, opt,
		func(m *cpu.Machine) bool {
			return m.Hier.Mem.Peek(ResultAddr) == want.Uint64()
		})
}

// Attack2 runs the two-limb (128-bit) victim of BuildVictim2 under the
// same attack; the leak is identical, demonstrating it scales to real
// MPI arithmetic.
func Attack2(cfg VictimConfig2, opt AttackOptions) (AttackResult, error) {
	prog, err := BuildVictim2(cfg)
	if err != nil {
		return AttackResult{}, err
	}
	want := cfg.Expected()
	wl := want.Limbs()
	for len(wl) < 2 {
		wl = append(wl, 0)
	}
	return runVictimAttack(prog, cfg.ExpBits, cfg.Exponent, Results2Base, opt,
		func(m *cpu.Machine) bool {
			return m.Hier.Mem.Peek(Result2Addr) == wl[0] &&
				m.Hier.Mem.Peek(Result2Addr+8) == wl[1]
		})
}

// runVictimAttack is the shared measurement harness: run the victim
// TrainRuns+1 times, classify per-iteration timings against a midpoint
// threshold, and check the architectural result.
func runVictimAttack(prog *isa.Program, bits int, exponent, resultsBase uint64,
	opt AttackOptions, verify func(*cpu.Machine) bool) (AttackResult, error) {
	opt.setDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	var pred predictor.Predictor
	switch {
	case opt.NoVP:
		pred = predictor.NewNone()
	case opt.MakePredictor != nil:
		p, err := opt.MakePredictor()
		if err != nil {
			return AttackResult{}, err
		}
		pred = p
	default:
		lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: opt.Confidence})
		if err != nil {
			return AttackResult{}, err
		}
		pred = lvp
	}
	m, err := cpu.NewMachine(cpu.Config{}, mem.DefaultHierarchy(), pred, rng)
	if err != nil {
		return AttackResult{}, err
	}
	m.Noise = opt.Noise
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		return AttackResult{}, err
	}

	// Repeated invocations with the same key train the predictor
	// (Sec. IV-D1); the final run is the measured one.
	var totalCycles float64
	for r := 0; r <= opt.TrainRuns; r++ {
		res, err := m.Run(proc)
		if err != nil {
			return AttackResult{}, err
		}
		totalCycles += float64(res.Cycles)
	}

	out := AttackResult{Exponent: exponent, Bits: bits}
	lo, hi := float64(1<<62), 0.0
	for i := 0; i < bits; i++ {
		c := float64(m.Hier.Mem.Peek(resultsBase + uint64(8*i)))
		ebit := uint(exponent >> (bits - 1 - i) & 1)
		out.Series = append(out.Series, IterObs{Iter: i, Cycles: c, EBit: ebit})
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	out.Threshold = (lo + hi) / 2

	correct := 0
	for _, o := range out.Series {
		guess := uint(0)
		if o.Cycles > out.Threshold {
			guess = 1
		}
		if guess == 1 {
			out.Recovered |= 1 << (bits - 1 - o.Iter)
		}
		if guess == o.EBit {
			correct++
		}
	}
	out.BitSuccess = float64(correct) / float64(bits)

	// The victim's architectural result must match the golden model —
	// the attack is passive and cannot perturb correctness.
	out.ResultOK = verify(m)

	// Rate model: one bit per iteration, each costing its simulated
	// cycles plus a receiver synchronization epoch.
	perBit := totalCycles/float64((opt.TrainRuns+1)*bits) + opt.SyncEpoch
	out.RateBps = opt.ClockHz / perBit
	return out, nil
}

func bitsMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// KeyRecoveryRate runs the attack over several independent trials with
// different seeds and reports the mean per-bit success rate — the
// paper's "95.7% for 60 runs" metric.
func KeyRecoveryRate(cfg VictimConfig, opt AttackOptions, trials int) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("rsa: trials must be positive")
	}
	var sum float64
	for i := 0; i < trials; i++ {
		o := opt
		o.Seed = opt.Seed + int64(i)*7919
		res, err := Attack(cfg, o)
		if err != nil {
			return 0, err
		}
		if !res.ResultOK {
			return 0, fmt.Errorf("rsa: trial %d computed a wrong modexp result", i)
		}
		sum += res.BitSuccess
	}
	return sum / float64(trials), nil
}
