package results

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file is the shared per-key shard machinery behind CSVShardSink and
// BinShardSink: lazy file creation under a temp name, an FD cap with
// oldest-first eviction and transparent append reopen, per-shard write
// locks so encoding never happens under the sink-wide lock, and the rename
// that publishes every shard at Close. The two sinks differ only in their
// row encoder and file extension.

// rowEncoder is one shard file's row writer. HeaderDone/SetHeaderDone
// carry the "file preamble already written" state across evictions, so an
// append reopen continues the file instead of restarting it: the CSV
// encoder's header line and the binary encoder's magic+version header are
// both written exactly once per file lifetime.
type rowEncoder interface {
	Encode(Row) error
	HeaderDone() bool
	SetHeaderDone(bool)
}

// shard is one key's shard file, open or evicted.
type shard struct {
	path string // the published name; rows go to path+partExt until Close
	// mu serializes writes and eviction on this shard, so encode I/O does
	// not happen under the sink-wide lock. Lock order: shardSink.mu
	// before shard.mu, always.
	mu sync.Mutex
	// created records that the file exists on disk (first open truncates,
	// later reopens append).
	created bool
	// headerDone carries the encoder's header state across evictions.
	headerDone bool
	// f, bw, enc are non-nil only while the shard is open.
	f   *os.File
	bw  *bufio.Writer
	enc rowEncoder
}

// partExt marks a shard that is still being written. It is neither ".csv"
// nor ".bin", so no reader of a rows directory takes it for a shard.
const partExt = ".part"

// DefaultMaxOpenShards bounds how many shard files a shard sink keeps
// open at once. Shards beyond the bound are flushed, closed (oldest
// first) and transparently reopened in append mode on their next row, so
// a grid may have arbitrarily many keys without exhausting file
// descriptors.
const DefaultMaxOpenShards = 128

// shardSink is the generic one-file-per-key sink core. Emit is safe for
// concurrent use; rows within one key keep their emission order.
type shardSink struct {
	dir     string
	ext     string
	newEnc  func(io.Writer) rowEncoder
	maxOpen int
	mu      sync.Mutex
	shards  map[string]*shard
	created []*shard // shards in the order their files were created
	open    []*shard // open shards, oldest first
	closed  bool
}

func newShardSink(dir, ext string, newEnc func(io.Writer) rowEncoder) (*shardSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: shard sink: %w", err)
	}
	return &shardSink{
		dir: dir, ext: ext, newEnc: newEnc,
		maxOpen: DefaultMaxOpenShards, shards: map[string]*shard{},
	}, nil
}

// Dir returns the sink's shard directory.
func (s *shardSink) Dir() string { return s.dir }

// ShardPath returns the file a key's rows are written to. Keys map to file
// names by replacing path-hostile characters; when that sanitization loses
// information an FNV suffix keeps distinct keys in distinct files.
func (s *shardSink) ShardPath(key string) string {
	return filepath.Join(s.dir, shardFile(key, s.ext))
}

// shardFile maps a key to its shard file name with the given extension
// (".csv", ".bin").
func shardFile(key, ext string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, key)
	if clean != key {
		h := fnv.New32a()
		io.WriteString(h, key)
		clean = fmt.Sprintf("%s-%08x", clean, h.Sum32())
	}
	return clean + ext
}

// Emit implements Sink. The sink-wide lock covers only the shard lookup
// (and the rare open/evict); the row's encode and buffered write happen
// under the shard's own lock, so jobs streaming to different keys write
// concurrently.
func (s *shardSink) Emit(key string, row Row) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("results: emit %q on closed shard sink", key)
	}
	sh := s.shards[key]
	if sh == nil {
		sh = &shard{path: s.ShardPath(key)}
		s.shards[key] = sh
	}
	if sh.f == nil {
		if err := s.openLocked(sh); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("results: shard for %q: %w", key, err)
		}
	}
	// Taking sh.mu while still holding s.mu guarantees the shard cannot
	// be evicted (eviction needs s.mu) before the write claims it.
	sh.mu.Lock()
	s.mu.Unlock()
	defer sh.mu.Unlock()
	return sh.enc.Encode(row)
}

// openLocked opens (or reopens in append mode) a shard, evicting the
// oldest open shards while the bound is exceeded. Caller holds s.mu.
func (s *shardSink) openLocked(sh *shard) error {
	for len(s.open) >= s.maxOpen {
		if err := s.evictLocked(s.open[0]); err != nil {
			return err
		}
	}
	var f *os.File
	var err error
	if sh.created {
		f, err = os.OpenFile(sh.path+partExt, os.O_WRONLY|os.O_APPEND, 0o644)
	} else {
		f, err = os.Create(sh.path + partExt)
	}
	if err != nil {
		return err
	}
	if !sh.created {
		s.created = append(s.created, sh)
	}
	sh.created = true
	sh.f = f
	sh.bw = bufio.NewWriter(f)
	sh.enc = s.newEnc(sh.bw)
	sh.enc.SetHeaderDone(sh.headerDone)
	s.open = append(s.open, sh)
	return nil
}

// evictLocked flushes and closes one open shard, remembering its encoder
// state for a later append reopen. Caller holds s.mu; the shard's own
// lock is taken to wait out any in-flight write, and the file is closed
// under it: otherwise a racing writer could append to a closed handle.
// Shard files are local buffered writes, bounded by the FD cap.
func (s *shardSink) evictLocked(sh *shard) error {
	for i, o := range s.open {
		if o == sh {
			s.open = append(s.open[:i], s.open[i+1:]...)
			break
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	err := sh.bw.Flush()
	if cerr := sh.f.Close(); err == nil {
		err = cerr
	}
	sh.headerDone = sh.enc.HeaderDone()
	sh.f, sh.bw, sh.enc = nil, nil, nil
	return err
}

// Flush implements Sink: every open shard's buffer is forced into its temp
// file. Nothing is published until Close.
func (s *shardSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, sh := range s.open {
		sh.mu.Lock()
		if err := sh.bw.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Close implements Sink: flushes and closes every open shard file, then
// publishes every shard the sink created, evicted ones included, by
// renaming its temp file to ShardPath.
func (s *shardSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var firstErr error
	for len(s.open) > 0 {
		if err := s.evictLocked(s.open[0]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, sh := range s.created {
		if err := os.Rename(sh.path+partExt, sh.path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.created = nil
	return firstErr
}

// Keys returns every key the sink has seen, sorted.
func (s *shardSink) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.shards))
	for k := range s.shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CSVShardSink writes one CSV shard file per key under a directory.
// Shards are created lazily on the key's first row, under a temp name
// (ShardPath plus ".part", which no reader takes for a shard), and
// buffered; Flush fills the temp files, and Close renames each onto
// ShardPath, replacing any previous file of that name, so re-running a
// campaign rewrites its shards from scratch and a run that never closes
// its sink publishes no shard. At most DefaultMaxOpenShards files are open
// at a time, so both memory and file descriptors stay bounded by the keys
// emitting concurrently, not by the grid size or row count. Emit is safe
// for concurrent use; rows within one key keep their emission order.
type CSVShardSink struct {
	*shardSink
}

// NewCSVShardSink creates the directory (if needed) and returns the sink.
func NewCSVShardSink(dir string) (*CSVShardSink, error) {
	core, err := newShardSink(dir, ".csv", func(w io.Writer) rowEncoder { return NewCSVEncoder(w) })
	if err != nil {
		return nil, err
	}
	return &CSVShardSink{shardSink: core}, nil
}

// BinShardSink writes one binary row shard (see BinEncoder for the
// format) per key under a directory — the compact sibling of
// CSVShardSink for serving and replay: same key-to-file-name mapping
// (with a ".bin" extension), same temp files published at Close, same FD
// cap and eviction behavior, same concurrency contract. A campaign that
// tees a CSVShardSink and a BinShardSink over the same directory produces
// byte-deterministic sibling shards carrying identical logical rows in
// both formats.
type BinShardSink struct {
	*shardSink
}

// NewBinShardSink creates the directory (if needed) and returns the sink.
func NewBinShardSink(dir string) (*BinShardSink, error) {
	core, err := newShardSink(dir, ".bin", func(w io.Writer) rowEncoder { return NewBinEncoder(w) })
	if err != nil {
		return nil, err
	}
	return &BinShardSink{shardSink: core}, nil
}
