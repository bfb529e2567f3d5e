package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"vpsec/internal/scenario"
)

// Store is the content-addressed result cache: canonical result bytes
// keyed by the canonical spec hash (scenario.Spec.Hash). Determinism
// makes this sound — a spec hash names exactly one byte sequence, so
// stores never need invalidation, only eviction. Implementations must
// be safe for concurrent use.
type Store interface {
	// Get returns the cached bytes for key, or ok=false on a miss.
	Get(key string) (data []byte, ok bool)
	// Put stores data under key. Overwriting an existing entry with
	// different bytes cannot happen in correct operation (the key is a
	// content address of the producing spec); implementations may
	// keep either copy.
	Put(key string, data []byte) error
	// Len reports the number of cached entries (the cache-size gauge).
	Len() int
}

// MemStore is the in-process Store: a map under a mutex. It is the
// default cache and the memory tier in front of a DiskStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Get returns the cached bytes for key.
func (s *MemStore) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[key]
	return data, ok
}

// Put stores data under key.
func (s *MemStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
	return nil
}

// Len reports the number of cached entries.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// keyPattern is the only key shape the disk store touches: a sha256
// hex digest. Anything else (a corrupt request, a traversal attempt)
// is treated as a miss and never becomes a file name.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// DiskStore persists results as <dir>/<hash>.json files, one per
// cache entry — a server restart starts warm, and the files double as
// plain scenario.Result exports anyone can read with jq. Writes go
// through a temp file and rename, so readers (including concurrent
// servers sharing the directory) never observe a partial entry.
type DiskStore struct {
	dir string
}

// NewDiskStore opens (creating if needed) a disk store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: cache dir: %v", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path maps a key to its file, or "" for a malformed key.
func (s *DiskStore) path(key string) string {
	if !keyPattern.MatchString(key) {
		return ""
	}
	return filepath.Join(s.dir, key+".json")
}

// Get reads the cached bytes for key. A file is a hit only if it is
// the canonical result of the spec its key names: it must decode as a
// scenario.Result whose spec hashes to key and whose CanonicalJSON
// reproduces the file exactly. Anything else — a torn or hand-edited
// file, or a valid result stored under another spec's key — is a miss,
// so the job re-executes and Put overwrites the file. Job views splice
// stored bytes verbatim, so nothing unverified may leave this tier.
func (s *DiskStore) Get(key string) ([]byte, bool) {
	p := s.path(key)
	if p == "" {
		return nil, false
	}
	data, err := os.ReadFile(p)
	if err != nil || !isCanonicalResult(key, data) {
		return nil, false
	}
	return data, true
}

// isCanonicalResult reports whether data is exactly the canonical
// result bytes of the spec whose hash is key.
func isCanonicalResult(key string, data []byte) bool {
	var r scenario.Result
	if err := json.Unmarshal(data, &r); err != nil || r.Spec.Hash() != key {
		return false
	}
	canon, err := r.CanonicalJSON()
	return err == nil && bytes.Equal(canon, data)
}

// Put atomically writes data under key.
func (s *DiskStore) Put(key string, data []byte) error {
	p := s.path(key)
	if p == "" {
		return fmt.Errorf("server: malformed cache key %q", key)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// Len counts the cached entries on disk.
func (s *DiskStore) Len() int {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(matches)
}

// TieredStore layers a MemStore over a backing store (disk): gets hit
// memory first and fill it from the backing tier, puts write through
// to both. A DiskStore verifies what it returns, so the fill runs that
// check once per key per process.
type TieredStore struct {
	mem  *MemStore
	back Store
}

// NewTieredStore builds a memory-fronted view of back.
func NewTieredStore(back Store) *TieredStore {
	return &TieredStore{mem: NewMemStore(), back: back}
}

// Get hits the memory tier first, filling it on a backing-tier hit.
func (s *TieredStore) Get(key string) ([]byte, bool) {
	if data, ok := s.mem.Get(key); ok {
		return data, ok
	}
	data, ok := s.back.Get(key)
	if ok {
		s.mem.Put(key, data)
	}
	return data, ok
}

// Put writes through to both tiers.
func (s *TieredStore) Put(key string, data []byte) error {
	s.mem.Put(key, data)
	return s.back.Put(key, data)
}

// Len reports the backing tier's entry count (the authoritative one).
func (s *TieredStore) Len() int {
	return s.back.Len()
}
