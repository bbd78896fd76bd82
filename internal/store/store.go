// Package store is a disk-backed, crash-safe result store: tier 1 of
// the exploration engine's result cache, keyed by
// (core.ModelVersion, spec fingerprint) so warm restarts and fleets
// share completed solves instead of redoing them.
//
// Layout: append-only log segments (seg-NNNNNNNN.log) of checksummed
// records and nothing else. Every record carries a CRC32 over its key
// and payload, verified again on every read — the store never serves
// a corrupt record; it reports a miss instead.
//
// Recovery (Open) scans every segment in order and rebuilds the
// in-memory index, last write winning; its cost is linear in the
// bytes on disk. It is corruption-tolerant by contract: a torn tail is
// truncated and a record with a bad checksum but a plausible frame is
// skipped. Recovery never fails on corrupt bytes — only on
// environmental errors (unreadable directory, permissions). Other
// files in the directory are ignored.
package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cactid/internal/chaos"
)

const (
	segMagic = "CDSEG001" // first 8 bytes of every segment file

	recHeaderLen = 12      // keyLen u32 | valLen u32 | crc32(key||val) u32
	maxKeyLen    = 1 << 12 // frames beyond these bounds are treated as garbage
	maxValLen    = 1 << 26
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Config sizes and instruments a Store.
type Config struct {
	// Dir is the store directory, created if absent. Required.
	Dir string
	// SegmentBytes rotates the active log segment once it grows past
	// this size; 0 means 4 MiB.
	SegmentBytes int64
	// Chaos arms the store.get / store.put / store.recover injection
	// points; nil disables injection.
	Chaos *chaos.Injector
}

// recordLoc locates one record inside a segment.
type recordLoc struct {
	seg int   // segment number
	off int64 // byte offset of the record header
	n   int   // total record length (header + key + value)
}

// Store is the disk-backed key/value result store. All methods are
// safe for concurrent use.
type Store struct {
	dir      string
	segBytes int64
	chaos    *chaos.Injector // nil = no fault injection

	mu        sync.RWMutex
	index     map[string]recordLoc // guarded by mu
	segs      map[int]*os.File     // guarded by mu; read handles, one per live segment
	active    *os.File             // guarded by mu; append handle of the newest segment
	activeSeg int                  // guarded by mu
	activeOff int64                // guarded by mu; next append offset
	closed    bool                 // guarded by mu

	gets          atomic.Int64
	hits          atomic.Int64
	puts          atomic.Int64
	corruptReads  atomic.Int64 // reads that failed CRC or frame checks and were served as misses
	recovered     atomic.Int64 // records replayed from segment logs during Open
	skipped       atomic.Int64 // records discarded during recovery (bad checksum, lost tail)
	truncated     atomic.Int64 // bytes cut off torn segment tails during Open
	getFaults     atomic.Int64 // chaos-injected read faults absorbed as misses
	putFaults     atomic.Int64 // chaos-injected write faults (record dropped)
	recoverFaults atomic.Int64 // chaos-injected recovery faults (absorbed)
	diskBytes     atomic.Int64 // total bytes across live segment files
}

// recoverState is the store content rebuilt by Open before the Store
// is published; it becomes the guarded fields in one assignment.
type recoverState struct {
	index     map[string]recordLoc
	segs      map[int]*os.File
	active    *os.File
	activeSeg int
	activeOff int64
}

// Open opens (or creates) the store in cfg.Dir and recovers its
// contents by replaying every segment log, truncating torn tails and
// skipping corrupt records. Open fails only on environmental errors,
// never on corrupt store bytes.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: cfg.Dir, segBytes: cfg.SegmentBytes, chaos: cfg.Chaos}
	if err := s.chaos.Inject(context.Background(), chaos.StoreRecover); err != nil {
		// Recovery faults are absorbed by contract: Open must always
		// yield a usable store, so an injected fault is only counted.
		s.recoverFaults.Add(1)
	}
	st, err := s.recoverDir()
	if err != nil {
		for _, f := range st.segs {
			f.Close()
		}
		return nil, err
	}
	s.mu.Lock()
	s.index = st.index
	s.segs = st.segs
	s.active = st.active
	s.activeSeg = st.activeSeg
	s.activeOff = st.activeOff
	s.mu.Unlock()
	return s, nil
}

// segPath returns the file path of segment n.
func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", n))
}

// segNumber parses a segment file name, -1 if it is not one.
func segNumber(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "seg-%08d.log", &n); err != nil || n <= 0 {
		return -1
	}
	return n
}

// createSegment creates segment file n with its header and returns
// the read/write handle plus the append offset.
func createSegment(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return f, int64(len(segMagic)), nil
}

// recoverDir rebuilds the store state from disk. It runs before the
// Store is published, touching only the returned recoverState and the
// store's atomic counters.
func (s *Store) recoverDir() (recoverState, error) {
	st := recoverState{
		index: make(map[string]recordLoc),
		segs:  make(map[int]*os.File),
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	var segNums []int
	for _, e := range entries {
		if n := segNumber(e.Name()); n > 0 {
			segNums = append(segNums, n)
		}
	}
	sort.Ints(segNums)

	if len(segNums) == 0 {
		f, off, err := createSegment(s.segPath(1))
		if err != nil {
			return st, err
		}
		st.active, st.activeSeg, st.activeOff = f, 1, off
		st.segs[1] = f
		s.diskBytes.Add(off)
		return st, nil
	}

	// Segments replay in number order, so a key rewritten in a later
	// segment supersedes its earlier record: last write wins.
	var lastSize int64
	for _, n := range segNums {
		if lastSize, err = s.recoverSegment(&st, n); err != nil {
			return st, err
		}
	}
	// The newest segment becomes the append target: reopen it
	// read/write positioned at its (post-truncation) end.
	last := segNums[len(segNums)-1]
	if old := st.segs[last]; old != nil {
		old.Close()
	}
	f, err := os.OpenFile(s.segPath(last), os.O_RDWR, 0o644)
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(lastSize, 0); err != nil {
		f.Close()
		return st, fmt.Errorf("store: %w", err)
	}
	st.active, st.activeSeg, st.activeOff = f, last, lastSize
	st.segs[last] = f
	return st, nil
}

// recoverSegment opens segment n for reading, replays its records,
// truncates a torn tail, and returns the segment's post-truncation
// size.
func (s *Store) recoverSegment(st *recoverState, n int) (int64, error) {
	path := s.segPath(n)
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	goodEnd := int64(0)
	if len(buf) >= len(segMagic) && string(buf[:len(segMagic)]) == segMagic {
		goodEnd = s.scanRecords(st, buf, n)
	}
	// An unrecognizable header leaves goodEnd at 0: the whole file is
	// torn and gets rewritten as an empty segment below.
	if goodEnd < int64(len(buf)) {
		s.truncated.Add(int64(len(buf)) - goodEnd)
		if err := os.Truncate(path, goodEnd); err != nil {
			return 0, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	if goodEnd < int64(len(segMagic)) {
		if err := os.WriteFile(path, []byte(segMagic), 0o644); err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		goodEnd = int64(len(segMagic))
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	st.segs[n] = f
	s.diskBytes.Add(goodEnd)
	return goodEnd, nil
}

// scanRecords replays the records after the segment header into the
// index being rebuilt and returns the offset of the first byte that
// does not belong to a fully intact or cleanly skippable record — the
// truncation point. A record with a plausible frame but a failing
// checksum is skipped: frame lengths sit outside the checksummed
// region, so a corrupted frame can cause a bounded garbage walk, and
// every candidate is re-validated until the first implausible frame.
func (s *Store) scanRecords(st *recoverState, buf []byte, seg int) int64 {
	off := int64(len(segMagic))
	for {
		rem := int64(len(buf)) - off
		if rem <= 0 {
			return int64(len(buf)) // clean end
		}
		if rem < recHeaderLen {
			return off // torn header
		}
		keyLen := int64(binary.LittleEndian.Uint32(buf[off:]))
		valLen := int64(binary.LittleEndian.Uint32(buf[off+4:]))
		want := binary.LittleEndian.Uint32(buf[off+8:])
		if keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen {
			return off // implausible frame: torn or garbage from here on
		}
		total := recHeaderLen + keyLen + valLen
		if rem < total {
			return off // torn body
		}
		body := buf[off+recHeaderLen : off+total]
		if crc32.ChecksumIEEE(body) != want {
			// Bad checksum inside a plausible frame: skip this record
			// and keep scanning — later records are independent.
			s.skipped.Add(1)
			off += total
			continue
		}
		key := string(body[:keyLen])
		st.index[key] = recordLoc{seg: seg, off: off, n: int(total)}
		s.recovered.Add(1)
		off += total
	}
}

// encodeRecord frames one key/value pair.
func encodeRecord(key string, val []byte) []byte {
	rec := make([]byte, recHeaderLen+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(val)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], val)
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[recHeaderLen:]))
	return rec
}

// parseRecord validates a framed record and returns its key/value.
func parseRecord(rec []byte) (key string, val []byte, ok bool) {
	if len(rec) < recHeaderLen {
		return "", nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(rec[0:]))
	valLen := int(binary.LittleEndian.Uint32(rec[4:]))
	want := binary.LittleEndian.Uint32(rec[8:])
	if keyLen <= 0 || keyLen > maxKeyLen || valLen < 0 || valLen > maxValLen ||
		len(rec) != recHeaderLen+keyLen+valLen {
		return "", nil, false
	}
	body := rec[recHeaderLen:]
	if crc32.ChecksumIEEE(body) != want {
		return "", nil, false
	}
	return string(body[:keyLen]), body[keyLen:], true
}

// Get returns the payload stored under key. A missing key, a chaos-
// forced miss, and a corrupt record all report ok=false — the store
// never returns bytes that fail their checksum. The error is non-nil
// only for injected faults and I/O errors; callers should treat it as
// a miss too.
func (s *Store) Get(ctx context.Context, key string) (val []byte, ok bool, err error) {
	s.gets.Add(1)
	if err := s.chaos.Inject(ctx, chaos.StoreGet); err != nil {
		s.getFaults.Add(1)
		return nil, false, err
	}
	if s.chaos.ForceMiss(chaos.StoreGet) {
		s.getFaults.Add(1)
		return nil, false, nil
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, ErrClosed
	}
	loc, found := s.index[key]
	var f *os.File
	if found {
		f = s.segs[loc.seg]
	}
	s.mu.RUnlock()
	if !found || f == nil {
		return nil, false, nil
	}
	rec := make([]byte, loc.n)
	if _, err := f.ReadAt(rec, loc.off); err != nil {
		s.corruptReads.Add(1)
		return nil, false, fmt.Errorf("store: read %q: %w", key, err)
	}
	k, v, valid := parseRecord(rec)
	if !valid || k != key {
		s.corruptReads.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return v, true, nil
}

// Put appends one key/value record and updates the index; a repeated
// key is superseded (last write wins). An injected store.put fault
// drops the write and surfaces as the returned error — the caller
// keeps its in-memory result and loses only durability.
func (s *Store) Put(ctx context.Context, key string, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d outside (0, %d]", len(key), maxKeyLen)
	}
	if len(val) > maxValLen {
		return fmt.Errorf("store: value length %d exceeds %d", len(val), maxValLen)
	}
	if err := s.chaos.Inject(ctx, chaos.StorePut); err != nil {
		s.putFaults.Add(1)
		return err
	}
	rec := encodeRecord(key, val)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.activeOff >= s.segBytes {
		// Rotate: seal the active segment and start the next one.
		f, off, err := createSegment(s.segPath(s.activeSeg + 1))
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.active.Sync()
		s.activeSeg++
		s.active, s.activeOff = f, off
		s.segs[s.activeSeg] = f
		s.diskBytes.Add(off)
	}
	off := s.activeOff
	if _, err := s.active.Write(rec); err != nil {
		// A partial append leaves a torn tail; rewind the file so the
		// next append does not build on it. Recovery would also have
		// truncated it.
		s.active.Truncate(off)
		s.active.Seek(off, 0)
		s.mu.Unlock()
		return fmt.Errorf("store: append: %w", err)
	}
	s.activeOff += int64(len(rec))
	s.index[key] = recordLoc{seg: s.activeSeg, off: off, n: len(rec)}
	s.diskBytes.Add(int64(len(rec)))
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Keys returns every stored key with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Close fsyncs the active segment and closes the store. Further
// operations return ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.active.Sync()
	var firstErr error
	for _, f := range s.segs {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats is a snapshot of the store's size and churn counters.
type Stats struct {
	Keys        int   `json:"keys"`
	Segments    int   `json:"segments"`
	BytesOnDisk int64 `json:"bytes_on_disk"`

	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	Puts int64 `json:"puts"`

	CorruptReads     int64 `json:"corrupt_reads"`
	RecoveredRecords int64 `json:"recovered_records"`
	SkippedRecords   int64 `json:"skipped_records"`
	TruncatedBytes   int64 `json:"truncated_bytes"`

	GetFaults     int64 `json:"get_faults"`
	PutFaults     int64 `json:"put_faults"`
	RecoverFaults int64 `json:"recover_faults"`
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	keys, segs := len(s.index), len(s.segs)
	s.mu.RUnlock()
	return Stats{
		Keys:             keys,
		Segments:         segs,
		BytesOnDisk:      s.diskBytes.Load(),
		Gets:             s.gets.Load(),
		Hits:             s.hits.Load(),
		Puts:             s.puts.Load(),
		CorruptReads:     s.corruptReads.Load(),
		RecoveredRecords: s.recovered.Load(),
		SkippedRecords:   s.skipped.Load(),
		TruncatedBytes:   s.truncated.Load(),
		GetFaults:        s.getFaults.Load(),
		PutFaults:        s.putFaults.Load(),
		RecoverFaults:    s.recoverFaults.Load(),
	}
}
