// Package store persists analysis verdicts across process restarts.
//
// The decision procedures the service amortizes are PSPACE- to
// 2EXPTIME-complete, so a verdict keyed by the rule set's canonical
// fingerprint is worth keeping far beyond one process lifetime: a
// restarted replica that re-pays every decision is the difference
// between a warm fleet and a cold one. FileStore is the embedded
// backend — a crash-safe, single-file, append-only log of
// (cache key, payload) records — and VerdictStore is the seam that
// keeps the backend pluggable (a Redis or S3 client implements the same
// three methods). Resilient wraps any backend with graceful
// degradation: the store is a cache, so every failure mode degrades to
// memory-only serving instead of failing requests.
//
// On-disk format: an 8-byte magic header, then records of
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//	payload = uint16 key length | key | value
//
// (all little-endian). Appends are the only mutation; an overwrite is a
// later record for the same key, and recovery keeps the last one.
// Opening a store scans the log, truncates a torn tail at the first
// record that is short or fails its checksum, and rebuilds the
// in-memory key hash → offset index. Durability is configurable (FsyncAlways
// / FsyncInterval / FsyncNever); compaction rewrites the live records
// to a temporary file and atomically renames it into place.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// VerdictStore is the pluggable persistence backend under the service's
// in-memory verdict cache: Get on a cache miss, Put on a freshly
// computed verdict. Payloads are opaque bytes (the service stores
// serialized api decisions). Implementations must be safe for
// concurrent use; errors must describe the store, not the key, since
// the caller treats any error as "the backend is unhealthy".
type VerdictStore interface {
	// Get returns the payload stored under key, with ok reporting
	// whether the key was present. err is reserved for backend failures
	// — a missing key is (nil, false, nil).
	Get(key string) (val []byte, ok bool, err error)
	// Put stores val under key, replacing any previous payload.
	Put(key string, val []byte) error
	// Close releases the backend. The store is unusable afterwards.
	Close() error
}

var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrNotStore is returned by Open when the file exists but does not
	// begin with the store magic — most likely a path mistake, and
	// truncating someone else's file would be worse than failing.
	ErrNotStore = errors.New("store: file is not a verdict store")
)

// FsyncPolicy selects when appends are made durable.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every Put: an acknowledged verdict
	// survives any crash. The slowest and safest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background interval (Options.Interval,
	// default 1s): a crash loses at most the last interval's verdicts —
	// they were cached computations, re-payable — but never corrupts
	// the file. The default.
	FsyncInterval
	// FsyncNever leaves durability to the OS page cache. Cheapest;
	// a crash may lose everything since the last OS writeback.
	FsyncNever
)

// ParseFsyncPolicy maps the flag spelling to the policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options configure a FileStore; zero values select the defaults noted
// on each field.
type Options struct {
	// Fsync is the durability policy (default FsyncAlways — the zero
	// value must not be the risky choice).
	Fsync FsyncPolicy
	// Interval is the FsyncInterval flush period (default 1s).
	Interval time.Duration
	// FS is the filesystem seam (default the real disk). Tests inject
	// MemFS here.
	FS FS
	// CompactMinBytes is the log size below which compaction never
	// triggers (default 1 MiB). Above it, compaction starts once dead
	// bytes — overwritten records — exceed half the log.
	CompactMinBytes int64
}

const (
	magic      = "chasevs1"
	recHeader  = 8 // uint32 length + uint32 crc
	maxPayload = 16 << 20
	maxKeyLen  = 1 << 16 // klen is a uint16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// indexKey names a key in the in-memory index: its seeded 64-bit hash.
// The index holds one entry per stored verdict for the life of the
// process, and a hash is a fraction of a service key's size with no
// allocation of its own. Two keys can share a hash: the record in the log
// keeps the full key, Get checks it, and a lookup that lands on another
// key's record misses. The store is a cache, so the verdict the other key
// displaced is only computed again.
type indexKey uint64

func (s *FileStore) keyOf(key string) indexKey { return indexKey(maphash.String(s.seed, key)) }

// recordRef locates one record in the log.
type recordRef struct {
	off  int64 // record start (length prefix)
	size int64 // total bytes including the 8-byte record header
}

// FileStore is the embedded single-file VerdictStore. Create with Open,
// release with Close. Safe for concurrent use.
type FileStore struct {
	path   string
	fs     FS
	policy FsyncPolicy
	opts   Options

	mu         sync.RWMutex
	f          File
	size       int64 // append offset
	index      map[indexKey]recordRef
	seed       maphash.Seed // of the index hashes
	deadBytes  int64        // bytes held by overwritten records
	dirty      bool         // unsynced appends (FsyncInterval bookkeeping)
	failed     error        // sticky failure after an unrecoverable rollback
	closed     bool
	compacting bool

	wg        sync.WaitGroup // drains the compaction goroutine
	stopFlush chan struct{}
	flushDone chan struct{}

	compactions    atomic.Int64
	recoveredBytes int64 // torn tail dropped by Open
}

// FileStats is a point-in-time summary of a FileStore, for health
// endpoints and metrics.
type FileStats struct {
	Path           string `json:"path"`
	Records        int    `json:"records"`
	SizeBytes      int64  `json:"sizeBytes"`
	DeadBytes      int64  `json:"deadBytes"`
	Compactions    int64  `json:"compactions"`
	RecoveredBytes int64  `json:"recoveredBytes,omitempty"`
}

// Open opens (or creates) the store at path and recovers its index:
// the log is scanned record by record, and the first torn or corrupt
// record truncates the tail — everything before it is served,
// everything from it on is dropped. A leftover compaction temp file
// from a crash mid-compaction is removed.
func Open(path string, opts Options) (*FileStore, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.CompactMinBytes <= 0 {
		opts.CompactMinBytes = 1 << 20
	}
	// A crash between the compactor's temp write and its rename leaves
	// the temp behind; it was never the live store, so it is garbage.
	opts.FS.Remove(path + compactSuffix) //nolint:errcheck // best-effort cleanup; usually ErrNotExist

	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s := &FileStore{
		path:   path,
		fs:     opts.FS,
		policy: opts.Fsync,
		opts:   opts,
		f:      f,
		index:  make(map[indexKey]recordRef),
		seed:   maphash.MakeSeed(),
	}
	if err := s.recover(); err != nil {
		f.Close() //nolint:errcheck // the open already failed
		return nil, err
	}
	if s.policy == FsyncInterval {
		s.stopFlush = make(chan struct{})
		s.flushDone = make(chan struct{})
		//chaselint:owned Close stops it via stopFlush and waits on flushDone
		go s.flushLoop()
	}
	return s, nil
}

// recover validates the header, scans the log, truncates any torn
// tail, and builds the index. Called only from Open, before the store
// is shared.
func (s *FileStore) recover() error {
	size, err := s.f.Size()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", s.path, err)
	}
	if size < int64(len(magic)) {
		// Empty or torn during creation: start fresh.
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("store: reset %s: %w", s.path, err)
		}
		if _, err := s.f.WriteAt([]byte(magic), 0); err != nil {
			return fmt.Errorf("store: write header %s: %w", s.path, err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync header %s: %w", s.path, err)
		}
		s.size = int64(len(magic))
		return nil
	}
	hdr := make([]byte, len(magic))
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("store: read header %s: %w", s.path, err)
	}
	if string(hdr) != magic {
		return fmt.Errorf("%w: %s", ErrNotStore, s.path)
	}
	body := make([]byte, size-int64(len(magic)))
	if n, err := s.f.ReadAt(body, int64(len(magic))); n < len(body) {
		// ReadAt contract: n == len(body) or err != nil. A full read may
		// legitimately come back with io.EOF, which is not a failure.
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("store: read log %s: %w", s.path, err)
	}
	valid := scanRecords(body, int64(len(magic)), func(key string, _ []byte, ref recordRef) {
		k := s.keyOf(key)
		if old, ok := s.index[k]; ok {
			s.deadBytes += old.size
		}
		s.index[k] = ref
	})
	end := int64(len(magic)) + valid
	if end < size {
		if err := s.f.Truncate(end); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", s.path, err)
		}
		if s.policy != FsyncNever {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("store: sync recovered %s: %w", s.path, err)
			}
		}
		s.recoveredBytes = size - end
	}
	s.size = end
	return nil
}

// scanRecords walks buf — records starting at file offset base — and
// calls emit for each intact record in log order. It returns the number
// of bytes consumed: the valid prefix ends at the first record that is
// short, oversized, or fails its checksum.
func scanRecords(buf []byte, base int64, emit func(key string, val []byte, ref recordRef)) int64 {
	var off int64
	n := int64(len(buf))
	for {
		if n-off < recHeader {
			return off
		}
		plen := int64(binary.LittleEndian.Uint32(buf[off:]))
		sum := binary.LittleEndian.Uint32(buf[off+4:])
		if plen < 2 || plen > maxPayload || off+recHeader+plen > n {
			return off
		}
		payload := buf[off+recHeader : off+recHeader+plen]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off
		}
		klen := int64(binary.LittleEndian.Uint16(payload))
		if 2+klen > plen {
			return off
		}
		key := string(payload[2 : 2+klen])
		val := payload[2+klen:]
		size := recHeader + plen
		emit(key, val, recordRef{off: base + off, size: size})
		off += size
	}
}

// encodeRecord renders one record: header, then payload.
func encodeRecord(key string, val []byte) []byte {
	plen := 2 + len(key) + len(val)
	rec := make([]byte, recHeader+plen)
	payload := rec[recHeader:]
	binary.LittleEndian.PutUint16(payload, uint16(len(key)))
	copy(payload[2:], key)
	copy(payload[2+len(key):], val)
	binary.LittleEndian.PutUint32(rec, uint32(plen))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	return rec
}

// Get returns the payload stored under key. The record is re-read from
// the log and its checksum re-verified, so a store never serves bytes
// it cannot vouch for.
func (s *FileStore) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if s.failed != nil {
		return nil, false, s.failed
	}
	ref, ok := s.index[s.keyOf(key)]
	if !ok {
		return nil, false, nil
	}
	buf := make([]byte, ref.size)
	if n, err := s.f.ReadAt(buf, ref.off); n < len(buf) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, fmt.Errorf("store: read %s: %w", s.path, err)
	}
	var val []byte
	found := false
	if n := scanRecords(buf, ref.off, func(k string, v []byte, _ recordRef) {
		if k == key {
			val = v
			found = true
		}
	}); n != ref.size {
		return nil, false, fmt.Errorf("store: record at offset %d of %s is corrupt", ref.off, s.path)
	}
	// An intact record under another key shares this key's hash: that
	// key's verdict replaced this one in the index, so this one is gone.
	return val, found, nil
}

// Put appends a record for key. Under FsyncAlways a nil return means
// the record is durable; under the other policies it means the record
// is in the log and will be synced by the flusher or the OS. A failed
// or short append is rolled back by truncating the log to its previous
// end, so a write failure never leaves a torn record for a *later*
// crash to trip on; if even the rollback fails the store marks itself
// failed and every subsequent operation returns that error (the
// Resilient wrapper then degrades and reopens).
func (s *FileStore) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) >= maxKeyLen {
		return fmt.Errorf("store: key length %d outside [1, %d)", len(key), maxKeyLen)
	}
	if 2+len(key)+len(val) > maxPayload {
		return fmt.Errorf("store: payload for key %q exceeds %d bytes", key, maxPayload)
	}
	rec := encodeRecord(key, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if n, err := s.f.WriteAt(rec, s.size); err != nil || n < len(rec) {
		if err == nil {
			err = io.ErrShortWrite
		}
		err = fmt.Errorf("store: append to %s: %w", s.path, err)
		s.rollbackLocked(err)
		return err
	}
	if s.policy == FsyncAlways {
		if err := s.f.Sync(); err != nil {
			err = fmt.Errorf("store: fsync %s: %w", s.path, err)
			s.rollbackLocked(err)
			return err
		}
	} else {
		s.dirty = true
	}
	k := s.keyOf(key)
	if old, ok := s.index[k]; ok {
		s.deadBytes += old.size
	}
	s.index[k] = recordRef{off: s.size, size: int64(len(rec))}
	s.size += int64(len(rec))
	s.maybeCompactLocked()
	return nil
}

// rollbackLocked undoes a failed append by truncating the log back to
// the last acknowledged end. If the truncate itself fails the file may
// hold a torn record, which recovery would handle — but this handle can
// no longer vouch for its own state, so it goes sticky-failed.
func (s *FileStore) rollbackLocked(cause error) {
	if terr := s.f.Truncate(s.size); terr != nil {
		s.failed = fmt.Errorf("store: unusable after failed rollback (%v) of failed append (%w)", terr, cause)
	}
}

// Len returns the number of live keys.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats summarizes the store.
func (s *FileStore) Stats() FileStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return FileStats{
		Path:           s.path,
		Records:        len(s.index),
		SizeBytes:      s.size,
		DeadBytes:      s.deadBytes,
		Compactions:    s.compactions.Load(),
		RecoveredBytes: s.recoveredBytes,
	}
}

// Sync forces pending appends to disk regardless of policy.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if !s.dirty {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", s.path, err)
	}
	s.dirty = false
	return nil
}

// flushLoop is the FsyncInterval background flusher.
func (s *FileStore) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopFlush:
			return
		case <-t.C:
			s.flushOnce()
		}
	}
}

// flushOnce syncs pending appends; a sync failure marks the store
// failed so the next operation surfaces it (the flusher has no caller
// to report to).
func (s *FileStore) flushOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.failed != nil || !s.dirty {
		return
	}
	if err := s.f.Sync(); err != nil {
		s.failed = fmt.Errorf("store: interval fsync %s: %w", s.path, err)
		return
	}
	s.dirty = false
}

// Close stops the flusher, waits out any compaction, syncs pending
// appends, and closes the file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.stopFlush != nil {
		close(s.stopFlush)
		<-s.flushDone
	}
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.failed == nil && s.dirty && s.policy != FsyncNever {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
