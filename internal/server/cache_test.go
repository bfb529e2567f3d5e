package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/scenario"
)

// sampleKey returns a well-formed cache key (sha256 hex).
func sampleKey(b byte) string {
	return strings.Repeat(fmt.Sprintf("%02x", b), 32)
}

// canonicalResult executes spec and returns its canonical result bytes.
func canonicalResult(t *testing.T, spec scenario.Spec) []byte {
	t.Helper()
	res, err := scenario.Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	data, err := res.CanonicalJSON()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return data
}

// sampleEntry executes a small case spec and returns its cache key and
// canonical result bytes: the only kind of entry a DiskStore serves.
func sampleEntry(t *testing.T, seed int64) (key string, data []byte) {
	t.Helper()
	spec := scenario.Spec{Kind: scenario.KindCase, Category: string(core.TrainTest), Runs: 2, Seed: seed}
	return spec.Hash(), canonicalResult(t, spec)
}

// TestStoreRoundTrip: every Store implementation gets, puts, and
// counts consistently.
func TestStoreRoundTrip(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{
		"mem":    NewMemStore(),
		"disk":   disk,
		"tiered": NewTieredStore(mustDisk(t)),
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			key, want := sampleEntry(t, 1)
			if _, ok := s.Get(key); ok {
				t.Fatal("empty store reported a hit")
			}
			if err := s.Put(key, want); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
			// Same-key overwrite keeps a single entry.
			if err := s.Put(key, want); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 1 {
				t.Fatalf("Len after overwrite = %d, want 1", s.Len())
			}
		})
	}
}

// mustDisk builds a DiskStore in a test temp dir.
func mustDisk(t *testing.T) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskStorePersistsAcrossInstances: a second store over the same
// directory — a server restart — sees the first one's entries.
func TestDiskStorePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	first, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, want := sampleEntry(t, 2)
	if err := first.Put(key, want); err != nil {
		t.Fatal(err)
	}

	second, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := second.Get(key)
	if !ok || !bytes.Equal(data, want) {
		t.Fatalf("restart lost the entry: %q, %v", data, ok)
	}

	// The on-disk form is the documented <hash>.json layout.
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Errorf("expected %s.json on disk: %v", key, err)
	}
}

// TestDiskStoreRejectsMalformedKeys: anything that is not a sha256 hex
// digest is a miss on Get and an error on Put — a key never becomes an
// arbitrary file path.
func TestDiskStoreRejectsMalformedKeys(t *testing.T) {
	s := mustDisk(t)
	for _, key := range []string{
		"",
		"short",
		"../../etc/passwd",
		strings.Repeat("A", 64),      // wrong case
		strings.Repeat("g", 64),      // not hex
		sampleKey(0x01) + "x",        // too long
		"../" + sampleKey(0x01)[:61], // traversal, right length
	} {
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit", key)
		}
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
	if s.Len() != 0 {
		t.Errorf("malformed puts left %d entries", s.Len())
	}
}

// TestTieredStoreFillsFromBack: a get that misses memory but hits the
// backing tier fills the memory tier.
func TestTieredStoreFillsFromBack(t *testing.T) {
	back := mustDisk(t)
	key, data := sampleEntry(t, 3)
	if err := back.Put(key, data); err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredStore(back)
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("tiered store missed a backing-tier entry")
	}
	if _, ok := tiered.mem.Get(key); !ok {
		t.Error("backing-tier hit did not fill the memory tier")
	}
}

// TestDiskStoreVerifiesEntries: a cache file that is not the canonical
// result of the spec its name hashes — garbage, a torn write, or a
// valid result filed under another spec's key — is a miss. The server
// then executes the job as a miss, answers with the correct result,
// and rewrites the file with the canonical bytes.
func TestDiskStoreVerifiesEntries(t *testing.T) {
	spec := smallSpec(91, 4)
	want, err := scenario.Parse(mustJSON(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	key, canon := want.Hash(), canonicalResult(t, want)
	_, other := sampleEntry(t, 92)

	for name, file := range map[string][]byte{
		"garbage":   []byte("not a result\x00\xff"),
		"truncated": canon[:len(canon)/2],
		"other-key": other,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, key+".json")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			disk, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := disk.Get(key); ok {
				t.Fatal("DiskStore served an unverified file")
			}

			_, ts := newTestServer(t, Config{Workers: 1, Store: NewTieredStore(disk)})
			var jv JobView
			if status := post(t, ts.Client(), ts.URL+"/v1/jobs", map[string]any{"spec": spec, "wait": true}, &jv); status != http.StatusOK {
				t.Fatalf("status %d, want 200", status)
			}
			if jv.Cache != CacheMiss || jv.State != StateDone {
				t.Fatalf("cache=%q state=%q, want miss and done", jv.Cache, jv.State)
			}
			if got := getRaw(t, ts.Client(), ts.URL+"/v1/jobs/"+jv.ID+"/result", http.StatusOK); !bytes.Equal(got, canon) {
				t.Fatal("result differs from a fresh execution")
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, canon) {
				t.Fatal("the unverified file was not rewritten with the canonical bytes")
			}
		})
	}
}

// TestDiskStoreAcceptsRegistryResults: the verification round trip is
// exact for the canonical result of every non-sim registry spec, so a
// disk tier never turns a good entry into a permanent miss.
func TestDiskStoreAcceptsRegistryResults(t *testing.T) {
	n := 0
	for _, spec := range scenario.All() {
		if spec.Kind == scenario.KindSim {
			continue
		}
		n++
		spec.Runs, spec.Jobs = 4, 1
		if !isCanonicalResult(spec.Hash(), canonicalResult(t, spec)) {
			t.Errorf("%s: canonical result fails disk verification", spec.Name)
		}
	}
	if n == 0 {
		t.Fatal("no registry specs checked")
	}
}
