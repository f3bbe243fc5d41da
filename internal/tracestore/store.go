// Package tracestore is the persistent warm-start store: a
// content-addressed on-disk store of compressed recordings plus a
// small key→blob index for memoized cell tallies and trace
// references. It is what lets a grid run begin hot — a process
// restart (or a CI run restoring a cached directory) answers a cell
// from its stored tally, or the same workload on a new platform from
// its stored first-pass capture, instead of re-executing it from
// zero. A stored capture is the only stream the harness ever replays.
//
// Layout under the store directory:
//
//	tr-<hex sha256>.trace  one recording: magic, embedded digest, then
//	                       the trace wire payload (framed columnar
//	                       chunks, see trace.MarshalWire). The file
//	                       name is the payload digest, so identical
//	                       streams dedupe and corruption is detected
//	                       by re-hashing on load.
//	index.json             the entry index: opaque caller blobs keyed
//	                       by caller strings (the harness keys carry
//	                       the emission key, config hash, warm-up
//	                       count and stream-schema token).
//
// The store never interprets entry blobs; the harness serializes its
// own tallies and trace references. Loaded recordings draw their
// chunk buffers from the shared trace free lists, so a warm start
// streams into the same arenas capture uses. Every load path
// validates before trusting: corrupt or truncated files return errors
// (never panic) and leak nothing, which FuzzStoreLoad pins.
//
// Because the store is a cache, it degrades instead of dying:
//
//   - Transient I/O errors are retried a bounded number of times with
//     exponential backoff before being reported.
//   - A trace file that fails validation is quarantined — renamed to
//     <name>.corrupt — so the next lookup is a clean miss and the
//     recompute path rewrites a good copy under the same digest. The
//     load that hit the corruption still returns its error; callers
//     already treat load errors as misses.
//   - An index entry whose blob the caller cannot decode is dropped
//     (DropEntry, counted as quarantined), so the recompute's write
//     replaces it instead of losing to first-write-wins.
//   - A write that still fails after retries flips the store
//     read-only: later writes return ErrReadOnly immediately rather
//     than hammering an unwritable directory, while reads (and the
//     in-memory entry map) keep serving.
//
// All degraded-mode transitions are counted in Stats and, in tests,
// driven deterministically through an injected faults.Injector.
package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wheretime/internal/faults"
	"wheretime/internal/trace"
)

// traceMagic heads every trace file; indexVersion tags index.json.
const (
	traceMagic   = "WTSTOR1\n"
	indexVersion = 1
)

// Bounded retry for file I/O: a failed operation is attempted at most
// retryAttempts times in total, sleeping retryBaseDelay<<(attempt-1)
// between tries.
const (
	retryAttempts  = 3
	retryBaseDelay = 2 * time.Millisecond
)

// ErrReadOnly is returned by write paths after a previous write
// exhausted its retries: the directory is treated as unwritable and
// the store keeps serving reads and in-memory entries only.
var ErrReadOnly = errors.New("tracestore: store is read-only after a failed write")

// ErrCorruptIndex marks an index.json that exists but cannot be
// trusted — unparseable JSON or an unknown version. OpenRecovering
// quarantines such an index; plain Open reports it.
var ErrCorruptIndex = errors.New("tracestore: corrupt index")

// Stats counts store traffic for the warm-start log line, plus the
// degraded-mode transitions operators watch: bounded retries taken,
// files quarantined, writes abandoned, and whether the store has
// fallen back to read-only.
type Stats struct {
	EntryHits     int
	EntryMisses   int
	TraceHits     int
	TraceMisses   int
	TracesWritten int
	EntriesAdded  int

	Retries       int
	Quarantined   int
	WriteFailures int
	ReadOnly      bool
}

// Store is an open store directory. It is safe for concurrent use by
// the grid's workers: one Store instance is shared per Measure run,
// entries accumulate in memory, and Flush merges them into index.json
// at teardown.
type Store struct {
	dir string
	inj *faults.Injector // nil outside fault-injection tests

	mu      sync.Mutex
	entries map[string][]byte // loaded index plus this process's additions
	added   map[string][]byte // additions only, merged on Flush
	stats   Stats

	// Degraded-mode counters are atomics, not under mu: the write
	// helper bumps them while Flush already holds mu.
	retries       atomic.Int64
	quarantined   atomic.Int64
	writeFailures atomic.Int64
	readOnly      atomic.Bool
}

// indexFile is the JSON shape of index.json.
type indexFile struct {
	Version int               `json:"version"`
	Entries map[string][]byte `json:"entries"`
}

// Open opens (creating if needed) a store directory and loads its
// index. A corrupt index is an error — a cache that cannot be trusted
// must not be silently treated as empty, the caller decides.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		dir:     dir,
		entries: make(map[string][]byte),
		added:   make(map[string][]byte),
	}
	idx, err := s.readIndexFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, err
	}
	if idx != nil {
		s.entries = idx
	}
	return s, nil
}

// OpenRecovering is Open for long-lived services: a corrupt index is
// quarantined (renamed to index.json.corrupt) and the store reopened
// empty, so a damaged cache costs recomputation, not availability.
// Errors other than index corruption — an uncreatable directory, an
// unreadable file — are still returned.
func OpenRecovering(dir string) (*Store, error) {
	s, err := Open(dir)
	if err == nil || !errors.Is(err, ErrCorruptIndex) {
		return s, err
	}
	path := filepath.Join(dir, "index.json")
	if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
		return nil, err
	}
	s, rerr := Open(dir)
	if rerr != nil {
		return nil, rerr
	}
	s.quarantined.Add(1)
	return s, nil
}

// SetFaults installs a fault injector on the store's file operations.
// Test-only; install before the store is shared across goroutines.
func (s *Store) SetFaults(inj *faults.Injector) { s.inj = inj }

// retryIO runs f up to retryAttempts times, backing off between
// tries. A missing file is never retried — absence is a stable
// answer, not a transient fault.
func (s *Store) retryIO(f func() error) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBaseDelay << (attempt - 1))
			s.retries.Add(1)
		}
		if err = f(); err == nil || errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return err
}

// readFile is os.ReadFile behind the retry loop and the fault
// injector's read hooks.
func (s *Store) readFile(path string) ([]byte, error) {
	var data []byte
	err := s.retryIO(func() error {
		if err := s.inj.Apply(faults.OpRead, path); err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.inj.Transform(faults.OpRead, path, data), nil
}

// writeFileAtomic writes chunks to path via a temp file and rename,
// behind the retry loop and the injector's write hooks. Exhausting
// the retries counts a write failure and flips the store read-only.
func (s *Store) writeFileAtomic(pattern, path string, chunks ...[]byte) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	err := s.retryIO(func() error {
		if err := s.inj.Apply(faults.OpWrite, path); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(s.dir, pattern)
		if err != nil {
			return err
		}
		var werr error
		for _, c := range chunks {
			if werr == nil {
				_, werr = tmp.Write(c)
			}
		}
		cerr := tmp.Close()
		if werr != nil || cerr != nil {
			os.Remove(tmp.Name())
			return firstErr(werr, cerr)
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return nil
	})
	if err != nil {
		s.writeFailures.Add(1)
		s.readOnly.Store(true)
		return fmt.Errorf("tracestore: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// quarantine renames a file that failed validation to <path>.corrupt,
// so the next lookup misses cleanly and the recompute path can write
// a fresh copy under the original name. Best-effort: on a rename
// failure the file stays, and the caller's error already tells the
// operator the store is unhealthy.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err == nil {
		s.quarantined.Add(1)
	}
}

// readIndexFile loads and validates one index file; a missing file is
// (nil, nil).
func (s *Store) readIndexFile(path string) (map[string][]byte, error) {
	data, err := s.readFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	var idx indexFile
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("%w %s: %v", ErrCorruptIndex, path, err)
	}
	if idx.Version != indexVersion {
		return nil, fmt.Errorf("%w %s: version %d, want %d", ErrCorruptIndex, path, idx.Version, indexVersion)
	}
	if idx.Entries == nil {
		idx.Entries = make(map[string][]byte)
	}
	return idx.Entries, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store has fallen back to read-only
// after a failed write.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Stats returns a copy of the traffic and degraded-mode counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Retries = int(s.retries.Load())
	st.Quarantined = int(s.quarantined.Load())
	st.WriteFailures = int(s.writeFailures.Load())
	st.ReadOnly = s.readOnly.Load()
	return st
}

// GetEntry returns the blob stored under key, if any.
func (s *Store) GetEntry(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.entries[key]
	if ok {
		s.stats.EntryHits++
	} else {
		s.stats.EntryMisses++
	}
	return b, ok
}

// PutEntry stages a blob under key; Flush persists it. The first
// write of a key in a process wins (cells are deterministic, so a
// second write of the same key is the same tally).
func (s *Store) PutEntry(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	b := append([]byte(nil), blob...)
	s.entries[key] = b
	s.added[key] = b
	s.stats.EntriesAdded++
}

// DropEntry removes the entry under key, counted as quarantined. The
// caller found its blob undecodable — bit rot, or a layout version
// this build no longer reads — and first-write-wins would otherwise
// pin it for good: with it gone, the next lookup misses cleanly and
// the recompute's PutEntry stages a good blob, which Flush then
// writes over the bad one on disk. Dropping an absent key is a no-op.
func (s *Store) DropEntry(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; !ok {
		return
	}
	delete(s.entries, key)
	delete(s.added, key)
	s.quarantined.Add(1)
}

// Flush merges this process's added entries into index.json (reading
// the file again first, so concurrent processes lose no keys) and
// writes it atomically. Safe to call more than once. A read-only
// store returns ErrReadOnly and keeps the additions staged in memory.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.added) == 0 {
		return nil
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	path := filepath.Join(s.dir, "index.json")
	merged, err := s.readIndexFile(path)
	if err != nil {
		// The on-disk index went corrupt after Open: rebuild from what
		// this process knows rather than failing the teardown.
		merged = nil
	}
	if merged == nil {
		merged = make(map[string][]byte)
	}
	for k, v := range s.added {
		merged[k] = v
	}
	data, err := json.MarshalIndent(indexFile{Version: indexVersion, Entries: merged}, "", " ")
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := s.writeFileAtomic("index-*.tmp", path, append(data, '\n')); err != nil {
		return err
	}
	for k, v := range s.added {
		s.entries[k] = v
	}
	s.added = make(map[string][]byte)
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// tracePath maps a payload digest to its file.
func (s *Store) tracePath(digest string) string {
	return filepath.Join(s.dir, "tr-"+digest+".trace")
}

// PutTrace writes the recording's wire form as a content-addressed
// trace file and returns its digest. A file that already exists is
// left alone — same digest, same bytes. A read-only store returns
// ErrReadOnly.
func (s *Store) PutTrace(r *trace.Recording) (string, error) {
	if s.readOnly.Load() {
		return "", ErrReadOnly
	}
	payload := r.MarshalWire(nil)
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	path := s.tracePath(digest)
	if _, err := os.Stat(path); err == nil {
		return digest, nil
	}
	if err := s.writeFileAtomic("tr-*.tmp", path, []byte(traceMagic), sum[:], payload); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.stats.TracesWritten++
	s.mu.Unlock()
	return digest, nil
}

// GetTrace loads the recording stored under digest. The payload is
// re-hashed and checked against both the requested digest and the
// embedded one before any parsing, so a corrupt, truncated or
// mis-named file errors out cleanly. A missing file returns
// (nil, nil) — absence is a cache miss, not a failure. A file that
// fails validation is quarantined (renamed to *.corrupt) so the next
// lookup misses and recomputes; the error is still returned.
func (s *Store) GetTrace(digest string) (*trace.Recording, error) {
	if len(digest) != 2*sha256.Size || !isHex(digest) {
		return nil, fmt.Errorf("tracestore: malformed trace digest %q", digest)
	}
	path := s.tracePath(digest)
	data, err := s.readFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.countTrace(false)
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	header := len(traceMagic) + sha256.Size
	if len(data) < header || string(data[:len(traceMagic)]) != traceMagic {
		s.quarantine(path)
		return nil, fmt.Errorf("tracestore: trace %s: bad header", digest)
	}
	payload := data[header:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != digest {
		s.quarantine(path)
		return nil, fmt.Errorf("tracestore: trace %s: payload digest mismatch", digest)
	}
	embedded := data[len(traceMagic):header]
	for i, b := range sum {
		if embedded[i] != b {
			s.quarantine(path)
			return nil, fmt.Errorf("tracestore: trace %s: embedded digest mismatch", digest)
		}
	}
	rec, err := trace.UnmarshalWire(payload)
	if err != nil {
		s.quarantine(path)
		return nil, fmt.Errorf("tracestore: trace %s: %w", digest, err)
	}
	s.countTrace(true)
	return rec, nil
}

func (s *Store) countTrace(hit bool) {
	s.mu.Lock()
	if hit {
		s.stats.TraceHits++
	} else {
		s.stats.TraceMisses++
	}
	s.mu.Unlock()
}

func isHex(s string) bool {
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// KeyHash condenses arbitrary key material into the fixed-width hex
// string the index and file names use.
func KeyHash(material string) string {
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}
