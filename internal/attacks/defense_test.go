package attacks

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestMechanismCatalogExhaustive: the catalog is token-ordered with
// unique tokens; every entry is reachable through ParseStack and the
// JSON codec, its canonical token round-trips through
// DefenseStack.String, and the mechanism it builds implements at least
// one capability interface, so no entry is a silent no-op.
func TestMechanismCatalogExhaustive(t *testing.T) {
	cat := Catalog()
	for i, e := range cat {
		if i > 0 && cat[i-1].Token >= e.Token {
			t.Errorf("catalog out of token order at %q after %q", e.Token, cat[i-1].Token)
		}
		token := e.Token
		if e.TakesArg {
			token += "(5)"
		}
		st, err := ParseStack(token)
		if err != nil {
			t.Errorf("mechanism %q not reachable via ParseStack: %v", token, err)
			continue
		}
		if len(st) != 1 {
			t.Errorf("ParseStack(%q) = %s, want a single mechanism", token, st)
			continue
		}
		m := st[0]
		if got := m.DefenseName(); got != token {
			t.Errorf("mechanism %q renders as %q", token, got)
		}
		var back DefenseStack
		if err := json.Unmarshal([]byte(`"`+token+`"`), &back); err != nil || back.String() != token {
			t.Errorf("JSON round-trip %q -> %q (%v)", token, back, err)
		}

		_, pw := m.(PredictorWrapper)
		_, em := m.(EffectsMechanism)
		_, sw := m.(ContextSwitcher)
		_, tg := m.(ContextTagger)
		if !pw && !em && !sw && !tg {
			t.Errorf("mechanism %q implements no capability interface", token)
		}
	}
}

func TestParseStackErrors(t *testing.T) {
	for _, bad := range []string{
		"B",           // unknown mechanism
		"R",           // missing argument
		"A(3)",        // argument on an argument-less mechanism
		"R(x)",        // malformed argument
		"R(3",         // unbalanced parens
		"D+D",         // duplicate mechanism
		"D+recompute", // conflicting effects policies
		"R(-2)",       // negative window
	} {
		if _, err := ParseStack(bad); err == nil {
			t.Errorf("ParseStack(%q) should fail", bad)
		}
	}
	if st, err := ParseStack("none"); err != nil || st != nil {
		t.Errorf("ParseStack(none) = %v, %v; want empty stack", st, err)
	}
}

// TestOptionsDefenseJSON: Options decodes its defense stack with no
// help from any other package, and re-encodes it to the same string.
func TestOptionsDefenseJSON(t *testing.T) {
	const stack = "A+R(5)+recompute"
	var opt Options
	if err := json.Unmarshal([]byte(`{"Defense":"`+stack+`"}`), &opt); err != nil {
		t.Fatal(err)
	}
	want := Stack(AlwaysPredict(false), RandomWindow(5), Recompute())
	if !reflect.DeepEqual(opt.Defense, want) {
		t.Fatalf("decoded stack %#v, want %#v", opt.Defense, want)
	}
	blob, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	if got := string(fields["Defense"]); got != `"`+stack+`"` {
		t.Errorf("re-encoded Defense = %s, want %q", got, stack)
	}
}
