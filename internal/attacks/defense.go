package attacks

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"vpsec/internal/cpu"
	"vpsec/internal/predictor"
)

// This file is the defense registry: the composable mechanisms, their
// catalog, and the "A+R(5)+recompute" stack syntax. A defense is a
// stack of named Mechanisms; each mechanism engages the harness through
// the capability interfaces it implements:
//
//   - PredictorWrapper — wraps the trial's predictor (the A- and
//     R-type transformations of Sec. VI-A);
//   - EffectsMechanism — selects the pipeline's speculation-effects
//     policy (D-type delay, value recomputation);
//   - ContextSwitcher — runs OS work on a simulated context switch
//     (flush-on-switch, Sec. VI-B);
//   - ContextTagger — assigns predictor isolation-domain tags to
//     processes (context-tagged predictor partitioning).
//
// The named strategies of the paper's defense matrix live in
// internal/defense, which builds on these types.

// Mechanism is one composable defense. Implementations additionally
// satisfy at least one capability interface; the harness dispatches on
// those by type assertion.
type Mechanism interface {
	// DefenseName returns the mechanism's canonical token, e.g. "A",
	// "R(5)", "recompute" — what strategy strings are built from.
	DefenseName() string
	// Validate reports parameterization errors.
	Validate() error
}

// PredictorWrapper is a mechanism that transforms the predictor; the
// wrappers compose in stack order (first mechanism innermost). rng is
// the trial's RNG, shared with machine noise, so randomized wrappers
// stay deterministic per seed.
type PredictorWrapper interface {
	Mechanism
	WrapPredictor(inner predictor.Predictor, rng *rand.Rand) predictor.Predictor
}

// EffectsMechanism is a mechanism that selects the pipeline's
// speculation-effects policy. A stack may contain at most one.
type EffectsMechanism interface {
	Mechanism
	EffectsPolicy() cpu.EffectsPolicy
}

// ContextSwitcher is a mechanism invoked when the simulated OS
// switches the machine between processes.
type ContextSwitcher interface {
	Mechanism
	OnContextSwitch(m *cpu.Machine, prev, next uint64)
}

// ContextTagger is a mechanism that assigns each process a predictor
// isolation-domain tag (predictor.Context.Tag).
type ContextTagger interface {
	Mechanism
	ContextTag(pid uint64) uint64
}

// DefenseStack is an ordered stack of mechanisms; the zero value (or
// nil) is the undefended baseline. Order matters for predictor
// wrappers: earlier mechanisms wrap closer to the base predictor.
type DefenseStack []Mechanism

// Stack builds a DefenseStack from mechanisms, a shorthand keeping
// call sites readable: Stack(AlwaysPredict(false), RandomWindow(9)).
func Stack(ms ...Mechanism) DefenseStack { return DefenseStack(ms) }

// Active reports whether any defense mechanism is engaged.
func (s DefenseStack) Active() bool { return len(s) > 0 }

// String renders the stack's canonical form: the mechanism tokens
// joined with "+", or "none" for the empty stack.
func (s DefenseStack) String() string {
	if len(s) == 0 {
		return "none"
	}
	out := ""
	for i, m := range s {
		if i > 0 {
			out += "+"
		}
		out += m.DefenseName()
	}
	return out
}

// Validate reports per-mechanism errors and stack-level conflicts:
// duplicate mechanisms and competing speculation-effects policies.
func (s DefenseStack) Validate() error {
	seen := map[string]bool{}
	effects := ""
	for _, m := range s {
		if m == nil {
			return errors.New("attacks: nil defense mechanism in stack")
		}
		if err := m.Validate(); err != nil {
			return err
		}
		name := m.DefenseName()
		if seen[name] {
			return fmt.Errorf("attacks: duplicate defense mechanism %q", name)
		}
		seen[name] = true
		if _, ok := m.(EffectsMechanism); ok {
			if effects != "" {
				return fmt.Errorf("attacks: conflicting effects policies %q and %q", effects, name)
			}
			effects = name
		}
	}
	return nil
}

// effectsPolicy resolves the stack's speculation-effects policy
// (EffectsImmediate when no EffectsMechanism is stacked).
func (s DefenseStack) effectsPolicy() cpu.EffectsPolicy {
	for _, m := range s {
		if em, ok := m.(EffectsMechanism); ok {
			return em.EffectsPolicy()
		}
	}
	return cpu.EffectsImmediate
}

// tagger returns the stack's ContextTagger, or nil.
func (s DefenseStack) tagger() ContextTagger {
	for _, m := range s {
		if ct, ok := m.(ContextTagger); ok {
			return ct
		}
	}
	return nil
}

// WithRandomWindow returns a copy of the stack with any R-type
// mechanism removed and RandomWindow(w) appended — the window-sweep
// transformation, preserving every other mechanism in order. (Only the
// relative order of predictor wrappers is observable, and A-type
// mechanisms always precede the R wrapper in canonical stacks, so
// appending keeps sweep results identical to overwriting the legacy
// RWindow field.)
func (s DefenseStack) WithRandomWindow(w int) DefenseStack {
	out := make(DefenseStack, 0, len(s)+1)
	for _, m := range s {
		if _, ok := m.(rType); ok {
			continue
		}
		out = append(out, m)
	}
	return append(out, RandomWindow(w))
}

// MarshalJSON encodes the stack as its canonical string, the form
// result dumps and spec files share.
func (s DefenseStack) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a canonical stack string via ParseStack.
func (s *DefenseStack) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	st, err := ParseStack(str)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// MechanismEntry is one mechanism of the defense catalog: the
// canonical token strategy strings are built from, its arity, a
// one-line summary and a constructor.
type MechanismEntry struct {
	// Token is the mechanism's canonical token, e.g. "A" or
	// "recompute". For parameterized mechanisms it is the bare name; the
	// rendered form carries the argument, e.g. "R(5)".
	Token string

	// TakesArg marks a parameterized mechanism (token "R" renders and
	// parses as "R(w)").
	TakesArg bool

	// Summary is the one-line description shown by vpdefense
	// -list-strategies and -describe-strategy.
	Summary string

	// Build constructs the mechanism; arg is meaningful only when
	// TakesArg is set.
	Build func(arg int) Mechanism
}

// catalog lists every mechanism, sorted by token. A new mechanism
// added here becomes addressable from strategy strings, spec files and
// the CLI without touching the harness wiring.
var catalog = []MechanismEntry{
	{Token: "A", Summary: "A-type: always predict, from the history value (Sec. VI-A)",
		Build: func(int) Mechanism { return AlwaysPredict(false) }},
	{Token: "A-fixed", Summary: "A-type, fixed flavor: always predict a fixed value (Sec. VI-A)",
		Build: func(int) Mechanism { return AlwaysPredict(true) }},
	{Token: "D", Summary: "D-type: delay speculative cache fills until commit (Sec. VI-A)",
		Build: func(int) Mechanism { return DelayEffects() }},
	{Token: "R", TakesArg: true, Summary: "R-type: predict within a random window W, P(correct)=1/W (Sec. VI-A)",
		Build: func(w int) Mechanism { return RandomWindow(w) }},
	{Token: "flush", Summary: "flush the whole VPS at every context switch (Sec. VI-B)",
		Build: func(int) Mechanism { return FlushVPS() }},
	{Token: "isolate", Summary: "context-tagged predictor isolation: per-process tag partitions VPS state",
		Build: func(int) Mechanism { return IsolateContexts() }},
	{Token: "recompute", Summary: "value recomputation: shadow-buffer speculative lines, install at commit",
		Build: func(int) Mechanism { return Recompute() }},
}

// Catalog lists the defense mechanisms sorted by token.
func Catalog() []MechanismEntry { return slices.Clone(catalog) }

// LookupMechanism resolves a catalog entry by its bare token ("R", not
// "R(5)").
func LookupMechanism(token string) (MechanismEntry, bool) {
	for _, e := range catalog {
		if e.Token == token {
			return e, true
		}
	}
	return MechanismEntry{}, false
}

// ParseStack parses the canonical stack syntax: mechanism tokens
// joined with "+", parameterized tokens carrying their argument in
// parentheses — "A+R(5)+recompute". "none" (or the empty string) is
// the empty stack and composes with nothing.
func ParseStack(s string) (DefenseStack, error) {
	if s == "" || s == "none" {
		return nil, nil
	}
	var stack DefenseStack
	for _, tok := range strings.Split(s, "+") {
		tok = strings.TrimSpace(tok)
		name, arg := tok, 0
		hasArg := false
		if i := strings.IndexByte(tok, '('); i >= 0 {
			if !strings.HasSuffix(tok, ")") {
				return nil, fmt.Errorf("attacks: malformed mechanism token %q", tok)
			}
			n, err := strconv.Atoi(tok[i+1 : len(tok)-1])
			if err != nil {
				return nil, fmt.Errorf("attacks: bad argument in %q: %v", tok, err)
			}
			name, arg, hasArg = tok[:i], n, true
		}
		e, ok := LookupMechanism(name)
		if !ok {
			return nil, fmt.Errorf("attacks: unknown mechanism %q (mechanisms: %s)", name, tokenList())
		}
		if e.TakesArg != hasArg {
			if e.TakesArg {
				return nil, fmt.Errorf("attacks: mechanism %q needs an argument, e.g. %s(5)", name, name)
			}
			return nil, fmt.Errorf("attacks: mechanism %q takes no argument", name)
		}
		stack = append(stack, e.Build(arg))
	}
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	return stack, nil
}

// tokenList renders the catalog tokens for error messages.
func tokenList() string {
	toks := make([]string, len(catalog))
	for i, e := range catalog {
		toks[i] = e.Token
	}
	return strings.Join(toks, ", ")
}

// aType is the A-type defense (Sec. VI-A): always predict, from the
// history value or a fixed value.
type aType struct{ fixedOnly bool }

// AlwaysPredict returns the A-type mechanism. fixedOnly selects the
// fixed-value flavor ("A-fixed"), which also removes the
// correct-vs-wrong contrast at the cost of almost never predicting
// usefully.
func AlwaysPredict(fixedOnly bool) Mechanism { return aType{fixedOnly: fixedOnly} }

func (a aType) DefenseName() string {
	if a.fixedOnly {
		return "A-fixed"
	}
	return "A"
}

func (a aType) Validate() error { return nil }

// WrapPredictor implements PredictorWrapper.
func (a aType) WrapPredictor(inner predictor.Predictor, rng *rand.Rand) predictor.Predictor {
	if a.fixedOnly {
		return predictor.NewATypeFixed(inner, 0)
	}
	return predictor.NewAType(inner, 0)
}

// rType is the R-type defense: predict within a random window W.
type rType struct{ window int }

// RandomWindow returns the R-type mechanism with window w
// (P(correct) = 1/w). w <= 1 degenerates to no wrapping, which is what
// lets window sweeps start at 1 without perturbing the RNG stream.
func RandomWindow(w int) Mechanism { return rType{window: w} }

func (r rType) DefenseName() string { return fmt.Sprintf("R(%d)", r.window) }

func (r rType) Validate() error {
	if r.window < 0 {
		return errors.New("attacks: negative R window")
	}
	return nil
}

// WrapPredictor implements PredictorWrapper. A window of 1 or less
// returns inner untouched: no wrapper object, no RNG draws, identical
// predictor name — the undefended fast path of a window sweep.
func (r rType) WrapPredictor(inner predictor.Predictor, rng *rand.Rand) predictor.Predictor {
	if r.window <= 1 {
		return inner
	}
	return predictor.NewRType(inner, r.window, rng)
}

// dType is the D-type defense: delay speculative side effects.
type dType struct{}

// DelayEffects returns the D-type mechanism (Sec. VI-A): loads leave
// no cache state until commit.
func DelayEffects() Mechanism { return dType{} }

func (dType) DefenseName() string { return "D" }

func (dType) Validate() error { return nil }

// EffectsPolicy implements EffectsMechanism.
func (dType) EffectsPolicy() cpu.EffectsPolicy { return cpu.EffectsDelay }

// recompute is the value-recomputation defense: like D-type the
// hierarchy stays clean until commit, but a shadow buffer serves
// speculative re-accesses so the slowdown mostly disappears.
type recompute struct{}

// Recompute returns the value-recomputation mechanism.
func Recompute() Mechanism { return recompute{} }

func (recompute) DefenseName() string { return "recompute" }

func (recompute) Validate() error { return nil }

// EffectsPolicy implements EffectsMechanism.
func (recompute) EffectsPolicy() cpu.EffectsPolicy { return cpu.EffectsRecompute }

// flushVPS is the OS-level flush-on-switch defense (Sec. VI-B).
type flushVPS struct{}

// FlushVPS returns the flush-on-context-switch mechanism: predictor
// state is cleared whenever the machine switches processes, severing
// every cross-process variant while leaving same-address-space attacks
// untouched.
func FlushVPS() Mechanism { return flushVPS{} }

func (flushVPS) DefenseName() string { return "flush" }

func (flushVPS) Validate() error { return nil }

// OnContextSwitch implements ContextSwitcher.
func (flushVPS) OnContextSwitch(m *cpu.Machine, prev, next uint64) { m.Pred.Reset() }

// isolate is the context-tagged predictor-isolation defense.
type isolate struct{}

// IsolateContexts returns the context-isolation mechanism: each
// process gets a non-zero isolation-domain tag mixed into every
// predictor index, so entries trained in one process are invisible to
// another — cross-process collisions disappear without flushing any
// state.
func IsolateContexts() Mechanism { return isolate{} }

func (isolate) DefenseName() string { return "isolate" }

func (isolate) Validate() error { return nil }

// ContextTag implements ContextTagger: a splitmix-style mix of the
// PID, forced odd so the tag is never zero (zero means untagged).
func (isolate) ContextTag(pid uint64) uint64 {
	h := (pid + 1) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h | 1
}
