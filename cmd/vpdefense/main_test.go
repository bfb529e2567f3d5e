package main

import (
	"bytes"
	"os"
	"testing"
)

// TestCatalogOutputGolden pins the -list-strategies and
// -describe-strategy renders byte-for-byte: the mechanism table order,
// the hook labels derived from the capability interfaces, the
// summaries, and the named strategy tables.
func TestCatalogOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		render func(*bytes.Buffer) error
	}{
		{"testdata/list-strategies.golden", func(b *bytes.Buffer) error { printStrategies(b); return nil }},
		{"testdata/describe-strategy.golden", func(b *bytes.Buffer) error { return describeStrategy(b, "A+R(5)+recompute") }},
	} {
		var got bytes.Buffer
		if err := tc.render(&got); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", tc.golden, got.Bytes(), want)
		}
	}
}
