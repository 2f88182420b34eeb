package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sweep result bytes \x00\x01\x02")
	if err := s.Put("sweep/states", "hash1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("sweep/states", "hash1")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mismatch: %q", got)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("len = %d, %v", n, err)
	}
}

func TestGetMissesAreNotErrors(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("never", "stored"); ok || err != nil {
		t.Errorf("miss: ok=%v err=%v", ok, err)
	}
}

func TestDistinctIdentitiesDistinctSlots(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job", "hashA", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job", "hashB", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job2", "hashA", []byte("c")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key, hash, want string
	}{
		{"job", "hashA", "a"}, {"job", "hashB", "b"}, {"job2", "hashA", "c"},
	} {
		got, ok, err := s.Get(tc.key, tc.hash)
		if err != nil || !ok || string(got) != tc.want {
			t.Errorf("get(%s,%s) = %q ok=%v err=%v", tc.key, tc.hash, got, ok, err)
		}
	}
}

func TestPutOverwrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "h", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "h", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("k", "h")
	if string(got) != "new" {
		t.Errorf("got %q", got)
	}
	if n, _ := s.Len(); n != 1 {
		t.Errorf("len = %d after overwrite", n)
	}
}

func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "h", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestConcurrentSameSlotPutGet pins the read-after-rename guarantee the
// package comment documents: a Get racing overwriting Puts of one slot
// sees either the complete old payload, the complete new one, or (before
// the first Put lands) a clean miss — never a torn prefix or a mix. Run
// under -race in CI, this also proves Put/Get share no unsynchronized
// process state.
func TestConcurrentSameSlotPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two full-sized distinguishable payloads: a torn read would mix them
	// or truncate one.
	a := bytes.Repeat([]byte{'a'}, 8192)
	b := bytes.Repeat([]byte{'b'}, 8192)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w, payload := range [][]byte{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if err := s.Put("slot", "h", payload); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				got, ok, err := s.Get("slot", "h")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if !ok {
					continue // before the first Put lands: a clean miss
				}
				if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
					t.Errorf("torn read: %d bytes starting %q", len(got), got[:min(8, len(got))])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	got, ok, err := s.Get("slot", "h")
	if err != nil || !ok || (!bytes.Equal(got, a) && !bytes.Equal(got, b)) {
		t.Fatalf("final read: ok=%v err=%v len=%d", ok, err, len(got))
	}
}

func TestAddrMatchesEntryFileName(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "h", []byte("x")); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr("k", "h")
	if len(addr) != 64 {
		t.Fatalf("addr length %d", len(addr))
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), addr+".ckpt")); err != nil {
		t.Errorf("entry not at Addr-derived path: %v", err)
	}
	if ok, err := s.Has("k", "h"); err != nil || !ok {
		t.Errorf("has = %v, %v", ok, err)
	}
	if ok, err := s.Has("k", "other"); err != nil || ok {
		t.Errorf("has missing = %v, %v", ok, err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}

func TestHashDeterministicAndSensitive(t *testing.T) {
	type cfg struct {
		Procs int
		Seed  int64
	}
	a := Hash("v1", "sweep", cfg{3, 1})
	b := Hash("v1", "sweep", cfg{3, 1})
	if a != b {
		t.Error("hash not deterministic")
	}
	if a == Hash("v1", "sweep", cfg{3, 2}) {
		t.Error("hash ignores config changes")
	}
	if a == Hash("v2", "sweep", cfg{3, 1}) {
		t.Error("hash ignores version salt")
	}
	if a == Hash("v1", "case", cfg{3, 1}) {
		t.Error("hash ignores job kind")
	}
	if len(a) != 64 {
		t.Errorf("hash length %d", len(a))
	}
	// A Hasher's rendered prefix gives Hash's digest at every split, and
	// one Hasher serves many suffixes.
	h := NewHasher("v1", "sweep")
	if got := h.Hash(cfg{3, 1}); got != a {
		t.Errorf("NewHasher(v1, sweep).Hash(cfg) = %s, want %s", got, a)
	}
	if got := h.Hash(cfg{3, 2}); got != Hash("v1", "sweep", cfg{3, 2}) {
		t.Error("a reused Hasher hashes another suffix differently from Hash")
	}
	if NewHasher("v1", "sweep", cfg{3, 1}).Hash() != a || NewHasher().Hash("v1", "sweep", cfg{3, 1}) != a {
		t.Error("a Hasher's split point changes its digest")
	}
}
