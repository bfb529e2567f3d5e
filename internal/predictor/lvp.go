package predictor

import (
	"fmt"
	"math/rand"

	"vpsec/internal/xrand"
)

// LVPConfig parameterizes a last value predictor.
type LVPConfig struct {
	Entries    int         // table capacity; 0 means the default 256
	Confidence int         // paper's "confidence number"; 0 means the default 4
	Scheme     IndexScheme // what indexes the table
	UsePID     bool        // include the pid in the index (Sec. V-B)
	MaxConf    int         // confidence saturation; 0 means 2*Confidence
	VHistLen   int         // value-history depth kept per entry; 0 means 4

	// FPC, when > 1, makes confidence increments probabilistic with
	// rate 1/FPC (forward probabilistic counters, as in the VTAGE
	// paper). Zero disables.
	FPC     int
	FPCSeed int64
}

func (c *LVPConfig) setDefaults() {
	if c.Entries == 0 {
		c.Entries = 256
	}
	if c.Confidence == 0 {
		c.Confidence = 4
	}
	if c.MaxConf == 0 {
		c.MaxConf = 2 * c.Confidence
	}
	if c.VHistLen == 0 {
		c.VHistLen = 4
	}
}

// Validate reports configuration errors.
func (c LVPConfig) Validate() error {
	if c.Entries < 0 || c.Confidence < 0 || c.MaxConf < 0 || c.VHistLen < 0 {
		return fmt.Errorf("predictor: negative LVP parameter: %+v", c)
	}
	return nil
}

// lvpEntry is one row of the VPS table in Fig. 1:
// index | confidence | usefulness | value | VHist.
type lvpEntry struct {
	confidence int
	usefulness int
	value      uint64
	vhist      []uint64
	lastTouch  uint64 // tie-breaker for usefulness eviction
}

// LVP is the baseline (non-secure) last value predictor [Lipasti,
// Wilkerson & Shen 1996] the paper evaluates: it predicts that a load
// will return the same value it returned last time, once that value
// has repeated a confidence number of times.
type LVP struct {
	cfg   LVPConfig
	table map[key]*lvpEntry
	free  []*lvpEntry // recycled entries (Reconfigure); allocate pops here first
	tick  uint64
	rng   *rand.Rand
	stats Stats
}

func init() {
	Register("lvp", func(cfg FactoryConfig) (Predictor, error) {
		return NewLVP(LVPConfig{
			Confidence: cfg.Confidence, Scheme: cfg.Scheme, UsePID: cfg.UsePID,
			FPC: cfg.FPC, FPCSeed: cfg.FPCSeed,
		})
	})
}

// NewLVP builds an LVP from cfg (zero fields take defaults).
func NewLVP(cfg LVPConfig) (*LVP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	p := &LVP{cfg: cfg, table: make(map[key]*lvpEntry)}
	if cfg.FPC > 1 {
		p.rng = rand.New(xrand.NewSource(cfg.FPCSeed))
	}
	return p, nil
}

// Name implements Predictor.
func (p *LVP) Name() string { return "lvp" }

// Config returns the post-default configuration.
func (p *LVP) Config() LVPConfig { return p.cfg }

// Predict implements Predictor: a prediction is produced only when the
// entry exists and its confidence has reached the threshold.
func (p *LVP) Predict(ctx Context) Prediction {
	p.stats.Lookups++
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	if !ok || e.confidence < p.cfg.Confidence {
		p.stats.NoPredictions++
		return Prediction{}
	}
	p.tick++
	e.lastTouch = p.tick
	p.stats.Predictions++
	return Prediction{Hit: true, Value: e.value}
}

// Update implements Predictor. On a correct prediction the confidence
// and usefulness are increased; a misprediction (or a value change
// observed without a prediction) resets confidence to zero and stores
// the new value (Sec. IV-A: one conflicting access "resets the
// confidence value to 0 and leads to no prediction").
func (p *LVP) Update(ctx Context, actual uint64, pred Prediction) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	p.tick++
	e, ok := p.table[k]
	if !ok {
		e = p.allocate(k)
	}
	e.lastTouch = p.tick
	if pred.Hit {
		if pred.Value == actual {
			p.stats.Correct++
			e.usefulness++
		} else {
			p.stats.Mispredicts++
			if e.usefulness > 0 {
				e.usefulness--
			}
		}
	}
	// Confidence counts consecutive observations of the stored value, so
	// after a confidence-threshold number of same-value accesses the
	// next access predicts (paper footnote 3). A conflicting value
	// restarts the count at one observation — below any threshold >= 2,
	// i.e. "no prediction" (Sec. IV-A).
	if ok && e.value == actual {
		if e.confidence < p.cfg.MaxConf && (p.cfg.FPC <= 1 || p.rng.Intn(p.cfg.FPC) == 0) {
			e.confidence++
		}
	} else {
		e.confidence = 1
		e.value = actual
	}
	e.vhist = append(e.vhist, actual)
	if len(e.vhist) > p.cfg.VHistLen {
		// Slide down in place rather than reslicing forward: advancing
		// the slice offset would make every later append reallocate.
		n := copy(e.vhist, e.vhist[len(e.vhist)-p.cfg.VHistLen:])
		e.vhist = e.vhist[:n]
	}
}

// allocate creates the entry for k, evicting the least-useful entry if
// the table is full (Fig. 1: "the entry with the smallest usefulness
// value will be evicted").
func (p *LVP) allocate(k key) *lvpEntry {
	if len(p.table) >= p.cfg.Entries {
		var victim key
		var victimE *lvpEntry
		best := -1
		var bestTouch uint64
		for vk, ve := range p.table {
			if best < 0 || ve.usefulness < best ||
				(ve.usefulness == best && ve.lastTouch < bestTouch) {
				best = ve.usefulness
				bestTouch = ve.lastTouch
				victim = vk
				victimE = ve
			}
		}
		delete(p.table, victim)
		p.stats.Evictions++
		*victimE = lvpEntry{vhist: victimE.vhist[:0]}
		p.table[k] = victimE
		return victimE
	}
	var e *lvpEntry
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free = p.free[:n-1]
		*e = lvpEntry{vhist: e.vhist[:0]}
	} else {
		e = &lvpEntry{}
	}
	p.table[k] = e
	return e
}

// Stats implements Predictor.
func (p *LVP) Stats() Stats { return p.stats }

// Reset implements Predictor: clears all state and statistics.
func (p *LVP) Reset() {
	p.table = make(map[key]*lvpEntry)
	p.stats = Stats{}
	p.tick = 0
}

// Reconfigure restores the predictor to the state NewLVP(cfg) would
// build, recycling its table buckets and entry storage. Trial harnesses
// that need a fresh predictor per trial use it to avoid re-growing the
// table from scratch every time; behavior after Reconfigure is
// bit-identical to a newly built LVP.
func (p *LVP) Reconfigure(cfg LVPConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.setDefaults()
	for _, e := range p.table {
		p.free = append(p.free, e)
	}
	clear(p.table)
	p.cfg = cfg
	p.tick = 0
	p.stats = Stats{}
	if cfg.FPC > 1 {
		// A held generator is re-seeded, not rebuilt: the stream is the
		// same and the reconfigure allocates nothing. Below FPC 2 the
		// generator is never drawn from, so it may stay held.
		if p.rng == nil {
			p.rng = rand.New(xrand.NewSource(cfg.FPCSeed))
		} else {
			p.rng.Seed(cfg.FPCSeed)
		}
	}
	return nil
}

// Entry introspection for tests and the attack harness.

// EntryState is a read-only view of one VPS row.
type EntryState struct {
	Confidence int
	Usefulness int
	Value      uint64
	VHist      []uint64
}

// Entry returns the state of ctx's entry, if present.
func (p *LVP) Entry(ctx Context) (EntryState, bool) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	if !ok {
		return EntryState{}, false
	}
	return EntryState{
		Confidence: e.confidence,
		Usefulness: e.usefulness,
		Value:      e.value,
		VHist:      append([]uint64(nil), e.vhist...),
	}, true
}

// LastValue returns the stored value for ctx's entry regardless of
// confidence; the A-type defense wrapper uses it to always predict.
func (p *LVP) LastValue(ctx Context) (uint64, bool) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	if !ok {
		return 0, false
	}
	return e.value, true
}

// Len returns the current number of table entries.
func (p *LVP) Len() int { return len(p.table) }

// ConfidenceCounts implements ConfidenceReporter: the confidence
// counter of every live table entry, in no particular order.
func (p *LVP) ConfidenceCounts() []int {
	out := make([]int, 0, len(p.table))
	for _, e := range p.table {
		out = append(out, e.confidence)
	}
	return out
}
