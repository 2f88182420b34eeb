// Package store is the campaign checkpoint store: a content-addressed,
// filesystem-backed map from (job key, config hash) to a finished job's
// encoded payload. The campaign engine consults it before scheduling a
// checkpointable job and saves the payload after a successful run, so an
// interrupted campaign resumed against the same store re-runs zero
// completed jobs and reproduces its output byte for byte.
//
// Addressing is content-addressed over the identity pair: the file name is
// the SHA-256 digest of (key, hash), so a job whose configuration changes
// gets a fresh slot while stale entries from earlier configurations are
// simply never consulted again. Writes go through a temp file plus rename,
// so a crash mid-Put never leaves a torn entry behind.
//
// # Concurrent Put and Get ordering
//
// The store's only mutation is rename(2), which replaces a directory entry
// atomically, so the read-after-rename guarantee is: a Get concurrent with
// a Put of the same slot observes either the complete previous state — the
// old payload, or absence if the slot was empty — or the complete new
// payload, never a torn prefix or a mix. Once Put has returned, every Get
// that happens after it (in the usual happens-before sense: same process
// synchronization, or cross-process ordering such as the lease protocol's
// claim handoff) observes the new payload on a POSIX filesystem. Multiple
// concurrent Puts to one slot are each atomic and last-writer-wins; the
// campaign layer only ever writes deterministic, byte-identical payloads
// for one (key, hash), so the race is benign there. Over NFS, client
// attribute caching can delay another host's view of a fresh entry — see
// the lease package for the knobs that absorb that delay.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// Store is a filesystem-backed checkpoint store. The zero value is not
// usable; call Open. A Store may be shared by concurrent campaign workers:
// Get reads are plain file reads and Put writes are atomic renames.
type Store struct {
	dir string
	met storeMetrics
}

// storeMetrics caches the registry instruments for the store's I/O.
// All-nil (observability disabled at Open) makes every update a no-op.
type storeMetrics struct {
	gets, getMisses, puts *obs.Counter
	getBytes, putBytes    *obs.Counter
	getUS, putUS          *obs.Histogram
}

// Open creates the cache directory (if needed) and returns the store.
// If the process-global observer (internal/obs) is enabled at this
// point, the store records put/get counts, bytes and latencies into it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	if o := obs.Active(); o != nil {
		reg := o.Metrics()
		s.met = storeMetrics{
			gets:      reg.Counter("store_gets_total"),
			getMisses: reg.Counter("store_get_misses_total"),
			puts:      reg.Counter("store_puts_total"),
			getBytes:  reg.Counter("store_get_bytes_total"),
			putBytes:  reg.Counter("store_put_bytes_total"),
			getUS:     reg.Histogram("store_get_us", obs.LatencyBucketsUS),
			putUS:     reg.Histogram("store_put_us", obs.LatencyBucketsUS),
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Addr returns the content address of the identity pair: the hex SHA-256
// digest that names the entry's file (without the ".ckpt" extension).
// Companion subsystems key their own per-job files by the same address —
// the lease claim protocol (store/lease) names its lease files this way so
// one job maps to exactly one lease slot and one checkpoint slot.
func (s *Store) Addr(key, hash string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", key, hash)
	return hex.EncodeToString(h.Sum(nil))
}

// path maps an identity pair to its entry file.
func (s *Store) path(key, hash string) string {
	return filepath.Join(s.dir, s.Addr(key, hash)+".ckpt")
}

// Has reports whether an entry exists for (key, hash) without reading its
// payload — one stat, cheap enough for claim-protocol polling loops.
func (s *Store) Has(key, hash string) (bool, error) {
	if _, err := os.Stat(s.path(key, hash)); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: has %q: %w", key, err)
	}
	return true, nil
}

// Get returns the payload stored for (key, hash), with ok reporting
// whether an entry exists. A missing entry is not an error.
//
//repolint:allow wallclock -- store latency histograms are wall-clock observability; the payload bytes are untouched
func (s *Store) Get(key, hash string) ([]byte, bool, error) {
	var start time.Time
	if s.met.gets != nil {
		start = time.Now()
	}
	data, err := os.ReadFile(s.path(key, hash))
	if s.met.gets != nil {
		s.met.gets.Inc()
		s.met.getBytes.Add(uint64(len(data)))
		s.met.getUS.Observe(float64(time.Since(start)) / 1e3)
		if err != nil && os.IsNotExist(err) {
			s.met.getMisses.Inc()
		}
	}
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: get %q: %w", key, err)
	}
	return data, true, nil
}

// Put stores the payload for (key, hash), replacing any previous entry.
// The write is atomic: concurrent readers see either the old entry or the
// new one, never a prefix.
//
//repolint:allow wallclock -- store latency histograms are wall-clock observability; the payload bytes are untouched
func (s *Store) Put(key, hash string, payload []byte) error {
	if s.met.puts != nil {
		start := time.Now()
		defer func() {
			s.met.puts.Inc()
			s.met.putBytes.Add(uint64(len(payload)))
			s.met.putUS.Observe(float64(time.Since(start)) / 1e3)
		}()
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := os.Rename(tmpName, s.path(key, hash)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	return nil
}

// Len counts the stored entries (a full directory scan; meant for tests
// and tooling, not hot paths).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".ckpt") {
			n++
		}
		return nil
	})
	return n, err
}

// Hash fingerprints a job configuration: each part is rendered with %#v
// and folded into one SHA-256 digest. %#v covers every field, so distinct
// configs hash distinctly; it is deterministic across processes only for
// plain value types — numbers, strings, bools, and arrays, slices and
// structs of those. A pointer, func or chan anywhere in a part renders as
// an address that differs from run to run, so a part must not contain one
// (nor a map: no config needs one, and excluding it keeps the rule a
// simple reflection walk). Callers should include a format-version salt so
// stored payloads are invalidated when a config struct or its payload
// encoding changes.
func Hash(parts ...any) string { return Hasher{}.Hash(parts...) }

// A Hasher is Hash with its first parts rendered once, for callers that
// fingerprint many configurations sharing them (every scenario of a grid
// against one base config): NewHasher(a, b).Hash(c) equals Hash(a, b, c).
type Hasher struct{ prefix []byte }

// NewHasher renders the leading parts.
func NewHasher(parts ...any) Hasher {
	var b []byte
	for _, p := range parts {
		b = fmt.Appendf(b, "%#v\x00", p)
	}
	return Hasher{b}
}

// Hash fingerprints the leading parts followed by parts.
func (h Hasher) Hash(parts ...any) string {
	d := sha256.New()
	d.Write(h.prefix)
	for _, p := range parts {
		fmt.Fprintf(d, "%#v\x00", p)
	}
	return hex.EncodeToString(d.Sum(nil))
}
