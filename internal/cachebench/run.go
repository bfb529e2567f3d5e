// The timed stepper: a minimal sequential interpreter that executes a
// lowered benchmark program against the attack evaluation's own
// hierarchy (mem.DefaultHierarchy, minus the TLB), charging one cycle
// per instruction plus the hierarchy's access latencies and the
// pipeline's jitter (cpu.Noise.Draw). The benchmark programs are
// straight-line loads/flushes around rdtsc pairs; the full out-of-order
// machine in internal/cpu would add predictor and pipeline effects that
// are the *subject* of the source paper but confounders here — the
// benchmark paper's three-step model is about cache state alone. The
// stepper's jitter draws come from a pooled internal/xrand source,
// re-seeded per trial: stream-identical to a fresh math/rand source,
// without math/rand's per-seed register fill or allocation.

package cachebench

import (
	"fmt"
	"math/rand"
	"sync"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/xrand"
)

// Flush latency model: clflush costs FlushLatency cycles, plus
// FlushCachedExtra when the line is present in some level (evicting
// costs more than a no-op flush — the observable Flush+Flush exploits).
const (
	// FlushLatency is the base clflush cost in cycles.
	FlushLatency uint64 = 30
	// FlushCachedExtra is the additional cost when the flushed line was
	// cached in L1 or L2.
	FlushCachedExtra uint64 = 12
)

// trialRig is the pooled per-trial machinery: a hierarchy and the
// jitter generator. A family run executes hundreds of thousands of
// short programs, and the line arrays, memory pages and generator state
// would dominate per-trial allocation otherwise.
type trialRig struct {
	h   *mem.Hierarchy
	rng *rand.Rand
}

var rigPool = sync.Pool{New: func() any {
	// The evaluation's hierarchy without the TLB: timing differences
	// are pure cache effects (see Limitations).
	h := mem.DefaultHierarchy()
	h.TLB = nil
	return &trialRig{h: h, rng: rand.New(xrand.NewSource(0))}
}}

// Trial executes one arm of the pattern's program pair under the given
// seed and noise model, returning the cycle count the program measured
// for step 3. Every trial starts from a cold hierarchy; determinism is
// the trial seed alone.
func (p Pattern) Trial(mapped bool, seed int64, noise cpu.Noise) (uint64, error) {
	prog, err := p.Compile(mapped)
	if err != nil {
		return 0, err
	}
	rig := rigPool.Get().(*trialRig)
	defer func() {
		rig.h.Reset()
		rigPool.Put(rig)
	}()
	rig.rng.Seed(seed)
	if err := runProgram(prog, rig.h, rig.rng, noise); err != nil {
		return 0, err
	}
	return rig.h.Mem.Peek(ResultAddr), nil
}

// runProgram interprets a straight-line benchmark program: one cycle
// per instruction, plus hierarchy latency and jitter on loads and
// flushes. Stores write through to backing memory without touching the
// caches (the benchmark's result store must not perturb the state under
// measurement); branches are rejected — the generator never emits them.
func runProgram(prog *isa.Program, h *mem.Hierarchy, rng *rand.Rand, noise cpu.Noise) error {
	var regs [isa.NumRegs]uint64
	var cycle uint64
	for addr, v := range prog.Data {
		h.Mem.Write(addr, v)
	}
	for pc, in := range prog.Code {
		cycle++
		switch in.Op {
		case isa.NOP, isa.FENCE:
			// One cycle; the stepper is already fully serialized.
		case isa.HALT:
			return nil
		case isa.MOVI:
			regs[in.Dst] = uint64(in.Imm)
		case isa.MOV:
			regs[in.Dst] = regs[in.Src1]
		case isa.ADD:
			regs[in.Dst] = regs[in.Src1] + regs[in.Src2]
		case isa.SUB:
			regs[in.Dst] = regs[in.Src1] - regs[in.Src2]
		case isa.AND:
			regs[in.Dst] = regs[in.Src1] & regs[in.Src2]
		case isa.OR:
			regs[in.Dst] = regs[in.Src1] | regs[in.Src2]
		case isa.XOR:
			regs[in.Dst] = regs[in.Src1] ^ regs[in.Src2]
		case isa.ADDI:
			regs[in.Dst] = regs[in.Src1] + uint64(in.Imm)
		case isa.ANDI:
			regs[in.Dst] = regs[in.Src1] & uint64(in.Imm)
		case isa.SHLI:
			regs[in.Dst] = regs[in.Src1] << uint64(in.Imm)
		case isa.SHRI:
			regs[in.Dst] = regs[in.Src1] >> uint64(in.Imm)
		case isa.RDTSC:
			regs[in.Dst] = cycle
		case isa.LOAD:
			addr := regs[in.Src1] + uint64(in.Imm)
			lat, served := h.Access(addr, true)
			cycle += lat + noise.Draw(rng, served == mem.LevelMem)
			regs[in.Dst] = h.Mem.Read(addr)
		case isa.STORE:
			h.Mem.Write(regs[in.Src1]+uint64(in.Imm), regs[in.Src2])
		case isa.FLUSH:
			addr := regs[in.Src1] + uint64(in.Imm)
			lat := FlushLatency
			if h.Cached(addr) {
				lat += FlushCachedExtra
			}
			h.Flush(addr)
			cycle += lat + noise.Draw(rng, false)
		default:
			return fmt.Errorf("cachebench: %s@%d: op %s unsupported by the benchmark stepper", prog.Name, pc, in.Op)
		}
		if in.Op.WritesDst() {
			regs[isa.R0] = 0 // R0 is hardwired zero
		}
	}
	return fmt.Errorf("cachebench: %s ran off the end", prog.Name)
}
