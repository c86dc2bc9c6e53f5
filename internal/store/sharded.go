// Package store is the persistent fleet container for compressed
// trajectories: LBS backends keep months of trajectories on disk, read any
// one of them by id (Get), and stream all of them (Scan) without loading
// the fleet into memory.
//
// Records are partitioned across N segment files by trajectory id (stable
// hash), so N pipeline tails can append concurrently instead of serializing
// on one writer. A small manifest makes the layout self-describing and
// recovery a per-shard sequential scan.
//
// On-disk layout of a store directory (little endian):
//
//	MANIFEST        magic "PRSM" | uint32 manifest version (1) |
//	                uint32 format version (3) | uint32 shard count
//	shard-0000.prss magic "PRSS" | uint32 format version (3) | records...
//	shard-0001.prss ...
//	record:         uint64 id | uint32 flags | uint32 length | uint32 crc |
//	                [48-byte BoundingSummary if flags&1] | length bytes
//	                (core.Compressed.Marshal); the CRC covers summary +
//	                payload. flags&2 marks a tombstone (Delete marker;
//	                length 0, no summary).
//
// Each record's compressed-domain BoundingSummary is persisted next to the
// payload so queries can reject candidates without decompressing anything.
//
// Crash vs corruption is distinguished per record: a record that runs past
// the end of its shard is a partial tail (crash during append) and is
// silently truncated away by OpenSharded; a record that is fully present
// but fails its CRC, or whose length prefix is implausible (> MaxRecordLen),
// is corruption and surfaces as a typed error (ErrCorrupt) instead of a
// panic or silent data loss. A path that is not a store directory, or a
// store of another format version, is refused with a typed error
// (ErrBadLayout, ErrBadMagic, ErrBadVersion).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"press/internal/core"
)

// Typed failure modes. OpenSharded wraps these with location detail; match
// with errors.Is.
var (
	// ErrBadMagic means a manifest or segment file does not start with the
	// expected magic bytes (not a store file at all).
	ErrBadMagic = errors.New("store: bad magic")
	// ErrBadVersion means the file is a store file of a version this build
	// does not speak.
	ErrBadVersion = errors.New("store: unsupported version")
	// ErrCorrupt means a record body is damaged: a complete record failed
	// its checksum or carries an implausible length prefix. (A record cut
	// short at end-of-file is a crash tail, not corruption, and is
	// recovered by truncation instead.)
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrBadLayout means the path is not a store directory, or the manifest
	// and the segment files on disk disagree (missing or extra shards).
	ErrBadLayout = errors.New("store: layout mismatch")
	// ErrNotFound is returned by ShardedStore.Get for an unknown id.
	ErrNotFound = errors.New("store: id not found")
	// ErrClosed is returned on use after Close.
	ErrClosed = errors.New("store: closed")
)

var (
	manifestMagic = [4]byte{'P', 'R', 'S', 'M'}
	magic         = [4]byte{'P', 'R', 'S', 'S'}
)

const (
	manifestVersion = 1
	shardedVersion  = 3 // the segment file format version
	manifestName    = "MANIFEST"
	// MaxRecordLen bounds a single record payload (1 GiB). A length prefix
	// beyond it is treated as corruption rather than a crash tail: no
	// legitimate record is ever that large, and refusing to scan past a
	// mangled length is safer than silently truncating everything after it.
	MaxRecordLen = 1 << 30
	// MaxShards bounds the manifest shard count to something sane.
	MaxShards = 4096
)

const (
	v3RecHdr = 20 // uint64 id | uint32 flags | uint32 length | uint32 crc

	flagSummary   uint32 = 1 << 0 // a 48-byte BoundingSummary precedes the payload
	flagTombstone uint32 = 1 << 1 // delete marker: no summary, zero-length payload
	knownFlags           = flagSummary | flagTombstone
)

func shardName(i int) string { return fmt.Sprintf("shard-%04d.prss", i) }

// ShardOf maps a trajectory id to its shard: a stable, platform-independent
// hash (the splitmix64 finalizer) mod the shard count. The assignment is
// deterministic for a given (id, shards) pair, so writers and readers never
// have to coordinate on placement.
func ShardOf(id uint64, shards int) int {
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// SyncPolicy controls when appends reach stable storage. The zero value is
// SyncNever: appends land in the OS page cache and a crash may lose
// recently appended records (each shard still recovers to its last
// complete durable record). SyncAlways fsyncs the written shard after
// every append — the strongest guarantee and the slowest. SyncInterval(n)
// is the middle ground: each shard fsyncs after every n appends to it, so
// at most n-1 records per shard ride in the page cache.
type SyncPolicy struct {
	every int // 0 = never, 1 = always, n = every n appends per shard
}

// SyncNever relies on the OS page cache (the default; fastest).
var SyncNever = SyncPolicy{}

// SyncAlways fsyncs the shard after every append.
var SyncAlways = SyncPolicy{every: 1}

// SyncInterval fsyncs a shard after every n appends to it; n <= 0 means
// never.
func SyncInterval(n int) SyncPolicy {
	if n < 0 {
		n = 0
	}
	return SyncPolicy{every: n}
}

// shard is one segment file plus its in-memory index. Every mutation and
// index read happens under mu; parallelism across a ShardedStore comes from
// different ids landing on different shards, not from lock-free tricks
// inside one.
//
// Rows are append-ordered. A row is "visible" when it is not a tombstone
// and no later tombstone exists for its id — Scan, IDs and Len see exactly
// the visible rows (superseded duplicates of a live id stay visible, as
// they always have). slots tracks the latest visible row per id, i.e. what
// Get serves.
type shard struct {
	mu       sync.RWMutex
	f        *os.File
	ids      []uint64
	offsets  []int64 // payload offsets
	sizes    []int
	sums     []*core.BoundingSummary // per row; nil when the record carries none
	tombs    []bool                  // per row; true marks a tombstone marker row
	revs     []uint64                // per row; store generation when the row was indexed
	slots    map[uint64]int          // id -> latest visible row
	lastTomb map[uint64]int          // id -> row of the latest tombstone
	nrows    map[uint64]int          // id -> visible row count (appends since last tombstone)
	liveRows int                     // total visible rows
	wpos     int64
	unsynced int // appends since the last fsync (SyncInterval bookkeeping)
}

func newShardState() *shard {
	return &shard{
		slots:    map[uint64]int{},
		lastTomb: map[uint64]int{},
		nrows:    map[uint64]int{},
	}
}

// visibleLocked reports row j's visibility; callers hold mu.
func (sh *shard) visibleLocked(j int) bool {
	if sh.tombs[j] {
		return false
	}
	if t, ok := sh.lastTomb[sh.ids[j]]; ok && j < t {
		return false
	}
	return true
}

// ShardedStore is an open sharded fleet container. Appends, reads and scans
// are safe for concurrent use from any number of goroutines; appends to
// distinct shards proceed in parallel.
type ShardedStore struct {
	dir    string
	shards []*shard

	// gen is the store's monotonic generation: it advances on every
	// mutation (append or delete) and doubles as the per-record revision
	// source. Indexes and caches key invalidation on it instead of the
	// record count, which a delete+insert or a Compact can leave unchanged.
	gen atomic.Uint64

	syncEvery atomic.Int32 // SyncPolicy, readable without the store lock

	mu     sync.Mutex
	closed bool
}

// Generation returns the store's monotonic mutation counter. It increases
// on every Append and Delete (never decreases, never repeats), so an
// observer that cached work at generation G can cheaply detect "anything
// changed since?" — including changes that leave Len unchanged.
func (s *ShardedStore) Generation() uint64 { return s.gen.Load() }

// SetSyncPolicy installs the fsync policy for subsequent appends; safe to
// call concurrently with appends. It returns the store for chaining.
func (s *ShardedStore) SetSyncPolicy(p SyncPolicy) *ShardedStore {
	s.syncEvery.Store(int32(p.every))
	return s
}

// SyncPolicy returns the policy currently in force.
func (s *ShardedStore) SyncPolicy() SyncPolicy {
	return SyncPolicy{every: int(s.syncEvery.Load())}
}

// CreateSharded makes a new empty sharded store directory with the given
// shard count (minimum 1), truncating any shards left from a previous store
// at the same path.
func CreateSharded(dir string, shards int) (*ShardedStore, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("store: shard count %d exceeds %d", shards, MaxShards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A previous store at the same path may have had more shards; stale
	// higher-numbered segment files would make the new layout unopenable
	// (ErrBadLayout), so clear every segment file before creating ours.
	stale, err := filepath.Glob(filepath.Join(dir, "shard-*.prss"))
	if err != nil {
		return nil, err
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return nil, err
		}
	}
	var man [16]byte
	copy(man[:4], manifestMagic[:])
	binary.LittleEndian.PutUint32(man[4:8], manifestVersion)
	binary.LittleEndian.PutUint32(man[8:12], shardedVersion)
	binary.LittleEndian.PutUint32(man[12:16], uint32(shards))
	if err := os.WriteFile(filepath.Join(dir, manifestName), man[:], 0o644); err != nil {
		return nil, err
	}
	st := &ShardedStore{dir: dir}
	for i := 0; i < shards; i++ {
		f, err := os.Create(filepath.Join(dir, shardName(i)))
		if err != nil {
			st.Close()
			return nil, err
		}
		var hdr [8]byte
		copy(hdr[:4], magic[:])
		binary.LittleEndian.PutUint32(hdr[4:], shardedVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			st.Close()
			return nil, err
		}
		sh := newShardState()
		sh.f = f
		sh.wpos = 8
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// OpenSharded opens an existing store and rebuilds every shard's record
// index, one goroutine per shard. Crash tails are truncated away per shard;
// corruption and layout mismatches surface as typed errors. A missing path
// returns an error wrapping os.ErrNotExist; a path that is not a directory
// wraps ErrBadLayout, and a store of any other format version ErrBadVersion.
func OpenSharded(path string) (*ShardedStore, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("store: %s: %w: not a store directory", path, ErrBadLayout)
	}
	man, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if len(man) < 16 {
		return nil, fmt.Errorf("store: manifest: short header: %w", io.ErrUnexpectedEOF)
	}
	if !hasMagic(man, manifestMagic) {
		return nil, fmt.Errorf("manifest: %w", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint32(man[4:8]); v != manifestVersion {
		return nil, fmt.Errorf("manifest: %w %d", ErrBadVersion, v)
	}
	if format := binary.LittleEndian.Uint32(man[8:12]); format != shardedVersion {
		return nil, fmt.Errorf("manifest: %w (format %d)", ErrBadVersion, format)
	}
	n := int(binary.LittleEndian.Uint32(man[12:16]))
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("manifest: %w (shard count %d)", ErrBadLayout, n)
	}
	if got, err := countShardFiles(path); err != nil {
		return nil, err
	} else if got != n {
		return nil, fmt.Errorf("%w: manifest says %d shards, found %d segment files", ErrBadLayout, n, got)
	}
	st := &ShardedStore{dir: path, shards: make([]*shard, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st.shards[i], errs[i] = openShard(filepath.Join(path, shardName(i)), i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	st.assignRevs()
	return st, nil
}

// assignRevs stamps every indexed row with a unique revision drawn from the
// store generation. Revisions only need to be unique within this process
// (they key in-memory caches), so fresh values per open are fine.
func (s *ShardedStore) assignRevs() {
	for _, sh := range s.shards {
		sh.revs = make([]uint64, len(sh.ids))
		for j := range sh.revs {
			sh.revs[j] = s.gen.Add(1)
		}
	}
}

func hasMagic(b []byte, m [4]byte) bool {
	return len(b) >= 4 && b[0] == m[0] && b[1] == m[1] && b[2] == m[2] && b[3] == m[3]
}

func countShardFiles(dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "shard-*.prss"))
	if err != nil {
		return 0, err
	}
	return len(names), nil
}

// openShard opens one segment file and rebuilds its index: a sequential
// scan that CRC-checks every complete record and truncates a partial tail.
func openShard(path string, idx int) (*shard, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	sh := newShardState()
	sh.f = f
	if err := sh.scanRecords(idx); err != nil {
		f.Close()
		return nil, err
	}
	return sh, nil
}

func (sh *shard) scanRecords(idx int) error {
	var hdr [8]byte
	if _, err := io.ReadFull(sh.f, hdr[:]); err != nil {
		return fmt.Errorf("store: shard %d: short header: %w", idx, err)
	}
	if !hasMagic(hdr[:], magic) {
		return fmt.Errorf("shard %d: %w", idx, ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != shardedVersion {
		return fmt.Errorf("shard %d: %w %d", idx, ErrBadVersion, v)
	}
	end, err := sh.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	pos := int64(8)
	var rec [v3RecHdr]byte
	for pos+v3RecHdr <= end {
		if _, err := sh.f.ReadAt(rec[:], pos); err != nil {
			return err
		}
		id := binary.LittleEndian.Uint64(rec[:8])
		flags := binary.LittleEndian.Uint32(rec[8:12])
		n := int64(binary.LittleEndian.Uint32(rec[12:16]))
		crc := binary.LittleEndian.Uint32(rec[16:20])
		if flags&^knownFlags != 0 {
			return fmt.Errorf("shard %d: %w: unknown record flags %#x at offset %d", idx, ErrCorrupt, flags, pos)
		}
		if flags&flagTombstone != 0 && (n != 0 || flags&flagSummary != 0) {
			return fmt.Errorf("shard %d: %w: malformed tombstone at offset %d", idx, ErrCorrupt, pos)
		}
		if n > MaxRecordLen {
			return fmt.Errorf("shard %d: %w: length %d at offset %d", idx, ErrCorrupt, n, pos)
		}
		var slen int64
		if flags&flagSummary != 0 {
			slen = core.BoundingSummaryLen
		}
		if pos+v3RecHdr+slen+n > end {
			break // partial tail record (crash during append): drop it
		}
		body := make([]byte, slen+n)
		if _, err := sh.f.ReadAt(body, pos+v3RecHdr); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(body) != crc {
			return fmt.Errorf("shard %d: %w: checksum mismatch at offset %d", idx, ErrCorrupt, pos)
		}
		var sum *core.BoundingSummary
		if slen > 0 {
			if sum, err = core.UnmarshalBoundingSummary(body[:slen]); err != nil {
				return fmt.Errorf("shard %d: %w: %v", idx, ErrCorrupt, err)
			}
		}
		row := len(sh.ids)
		sh.ids = append(sh.ids, id)
		sh.offsets = append(sh.offsets, pos+v3RecHdr+slen)
		sh.sizes = append(sh.sizes, int(n))
		sh.sums = append(sh.sums, sum)
		sh.tombs = append(sh.tombs, flags&flagTombstone != 0)
		if flags&flagTombstone != 0 {
			delete(sh.slots, id)
			sh.lastTomb[id] = row
			sh.liveRows -= sh.nrows[id]
			sh.nrows[id] = 0
		} else {
			sh.slots[id] = row
			sh.nrows[id]++
			sh.liveRows++
		}
		pos += v3RecHdr + slen + n
	}
	if pos < end {
		if err := sh.f.Truncate(pos); err != nil {
			return err
		}
	}
	sh.wpos = pos
	return nil
}

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// Dir returns the store directory.
func (s *ShardedStore) Dir() string { return s.dir }

// Len returns the total number of stored records across all shards:
// superseded duplicates count, deleted records and tombstone markers do
// not.
func (s *ShardedStore) Len() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.liveRows
		sh.mu.RUnlock()
	}
	return total
}

// ShardLen returns the number of records in shard i.
func (s *ShardedStore) ShardLen(i int) int {
	sh := s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.liveRows
}

// SizeBytes returns the total on-disk size across segment files (headers
// included, manifest excluded).
func (s *ShardedStore) SizeBytes() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.wpos
		sh.mu.RUnlock()
	}
	return total
}

func (s *ShardedStore) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Append stores one compressed trajectory under the given id. The shard is
// chosen by ShardOf, so concurrent appenders with ids on different shards
// never contend. Appending the same id again stores a new record; Get
// returns the latest one. The record's BoundingSummary (if present) is
// persisted next to the payload.
func (s *ShardedStore) Append(id uint64, ct *core.Compressed) error {
	return s.appendRaw(id, ct.Marshal(), ct.Summary)
}

func (s *ShardedStore) appendRaw(id uint64, payload []byte, sum *core.BoundingSummary) error {
	if s.isClosed() {
		return ErrClosed
	}
	sh := s.shards[ShardOf(id, len(s.shards))]
	var flags uint32
	slen := 0
	var sbytes [core.BoundingSummaryLen]byte
	if sum != nil {
		flags |= flagSummary
		slen = core.BoundingSummaryLen
		sbytes = sum.Marshal()
	}
	buf := make([]byte, v3RecHdr+slen+len(payload))
	binary.LittleEndian.PutUint64(buf[:8], id)
	binary.LittleEndian.PutUint32(buf[8:12], flags)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(payload)))
	copy(buf[v3RecHdr:], sbytes[:slen])
	copy(buf[v3RecHdr+slen:], payload)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(buf[v3RecHdr:]))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := sh.f.WriteAt(buf, sh.wpos); err != nil {
		return err
	}
	rev := s.gen.Add(1)
	prevSlot, hadSlot := sh.slots[id]
	row := len(sh.ids)
	sh.ids = append(sh.ids, id)
	sh.offsets = append(sh.offsets, sh.wpos+int64(v3RecHdr+slen))
	sh.sizes = append(sh.sizes, len(payload))
	sh.sums = append(sh.sums, sum)
	sh.tombs = append(sh.tombs, false)
	sh.revs = append(sh.revs, rev)
	sh.slots[id] = row
	sh.nrows[id]++
	sh.liveRows++
	sh.wpos += int64(len(buf))
	if every := int(s.syncEvery.Load()); every > 0 {
		sh.unsynced++
		if sh.unsynced >= every {
			if err := sh.f.Sync(); err != nil {
				// A failed fsync leaves this record's durability unknown:
				// un-index it (an errored Append must not be served by Get)
				// and keep the unsynced count for the earlier records so
				// the next append retries the sync immediately. Truncation
				// is best-effort — the scan-on-open drops the tail anyway.
				sh.ids, sh.offsets, sh.sizes = sh.ids[:row], sh.offsets[:row], sh.sizes[:row]
				sh.sums, sh.tombs, sh.revs = sh.sums[:row], sh.tombs[:row], sh.revs[:row]
				if hadSlot {
					sh.slots[id] = prevSlot
				} else {
					delete(sh.slots, id)
				}
				sh.nrows[id]--
				sh.liveRows--
				sh.wpos -= int64(len(buf))
				sh.unsynced--
				_ = sh.f.Truncate(sh.wpos)
				return err
			}
			sh.unsynced = 0
		}
	}
	return nil
}

// Delete removes id from the store by appending a tombstone record: Get
// stops serving it, Scan/IDs/Len stop seeing any of its rows, and the
// store generation advances. A later Append under the same id is a fresh
// insert.
func (s *ShardedStore) Delete(id uint64) error {
	if s.isClosed() {
		return ErrClosed
	}
	sh := s.shards[ShardOf(id, len(s.shards))]
	var buf [v3RecHdr]byte
	binary.LittleEndian.PutUint64(buf[:8], id)
	binary.LittleEndian.PutUint32(buf[8:12], flagTombstone)
	binary.LittleEndian.PutUint32(buf[12:16], 0)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(nil))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prevSlot, ok := sh.slots[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if _, err := sh.f.WriteAt(buf[:], sh.wpos); err != nil {
		return err
	}
	rev := s.gen.Add(1)
	row := len(sh.ids)
	prevTomb, hadTomb := sh.lastTomb[id]
	prevRows := sh.nrows[id]
	sh.ids = append(sh.ids, id)
	sh.offsets = append(sh.offsets, sh.wpos+v3RecHdr)
	sh.sizes = append(sh.sizes, 0)
	sh.sums = append(sh.sums, nil)
	sh.tombs = append(sh.tombs, true)
	sh.revs = append(sh.revs, rev)
	delete(sh.slots, id)
	sh.lastTomb[id] = row
	sh.liveRows -= prevRows
	sh.nrows[id] = 0
	sh.wpos += v3RecHdr
	if every := int(s.syncEvery.Load()); every > 0 {
		sh.unsynced++
		if sh.unsynced >= every {
			if err := sh.f.Sync(); err != nil {
				// Mirror the append rollback: an errored Delete must leave
				// the id served exactly as before.
				sh.ids, sh.offsets, sh.sizes = sh.ids[:row], sh.offsets[:row], sh.sizes[:row]
				sh.sums, sh.tombs, sh.revs = sh.sums[:row], sh.tombs[:row], sh.revs[:row]
				sh.slots[id] = prevSlot
				if hadTomb {
					sh.lastTomb[id] = prevTomb
				} else {
					delete(sh.lastTomb, id)
				}
				sh.liveRows += prevRows
				sh.nrows[id] = prevRows
				sh.wpos -= v3RecHdr
				sh.unsynced--
				_ = sh.f.Truncate(sh.wpos)
				return err
			}
			sh.unsynced = 0
		}
	}
	return nil
}

// Get reads the latest record stored under id, carrying its persisted
// BoundingSummary (nil for a record stored without one).
func (s *ShardedStore) Get(id uint64) (*core.Compressed, error) {
	ct, _, err := s.GetRecord(id)
	return ct, err
}

// GetRecord is Get plus the record's revision — a value unique to this
// exact stored record within the process, suitable as a cache key: a
// re-append (or delete+insert) of the same id yields a different revision.
func (s *ShardedStore) GetRecord(id uint64) (*core.Compressed, uint64, error) {
	if s.isClosed() {
		return nil, 0, ErrClosed
	}
	sh := s.shards[ShardOf(id, len(s.shards))]
	sh.mu.RLock()
	slot, ok := sh.slots[id]
	if !ok {
		sh.mu.RUnlock()
		return nil, 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	off, size := sh.offsets[slot], sh.sizes[slot]
	sum, rev := sh.sums[slot], sh.revs[slot]
	sh.mu.RUnlock()
	ct, err := sh.read(off, size)
	if err != nil {
		return nil, 0, err
	}
	ct.Summary = sum
	return ct, rev, nil
}

// StatRecord returns the revision and persisted BoundingSummary of the
// latest record under id without reading the payload — the cheap existence
// + staleness + filter probe the query layer uses before deciding to fetch
// anything. The summary is nil for records stored without one.
func (s *ShardedStore) StatRecord(id uint64) (rev uint64, sum *core.BoundingSummary, err error) {
	if s.isClosed() {
		return 0, nil, ErrClosed
	}
	sh := s.shards[ShardOf(id, len(s.shards))]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	slot, ok := sh.slots[id]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return sh.revs[slot], sh.sums[slot], nil
}

// read fetches one already-indexed record; records are immutable once
// appended, so no lock is needed for the I/O itself.
func (sh *shard) read(off int64, size int) (*core.Compressed, error) {
	blob := make([]byte, size)
	if _, err := sh.f.ReadAt(blob, off); err != nil {
		return nil, err
	}
	return core.UnmarshalCompressed(blob)
}

// rowSnap is a consistent point-in-time copy of a shard's visible rows.
type rowSnap struct {
	ids     []uint64
	offsets []int64
	sizes   []int
	sums    []*core.BoundingSummary
}

// snapshot returns the shard's visible rows as of now; appends that land
// later are not seen by a scan already in flight.
func (sh *shard) snapshot() rowSnap {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	snap := rowSnap{
		ids:     make([]uint64, 0, sh.liveRows),
		offsets: make([]int64, 0, sh.liveRows),
		sizes:   make([]int, 0, sh.liveRows),
		sums:    make([]*core.BoundingSummary, 0, sh.liveRows),
	}
	for j := range sh.ids {
		if !sh.visibleLocked(j) {
			continue
		}
		snap.ids = append(snap.ids, sh.ids[j])
		snap.offsets = append(snap.offsets, sh.offsets[j])
		snap.sizes = append(snap.sizes, sh.sizes[j])
		snap.sums = append(snap.sums, sh.sums[j])
	}
	return snap
}

// Scan streams every record — shards in order, records in append order
// within each shard — keyed by trajectory id. The callback's error aborts
// the scan and is returned. Scanning is safe while other goroutines append:
// the scan sees a consistent snapshot of each shard taken when the scan
// reaches it.
func (s *ShardedStore) Scan(fn func(id uint64, ct *core.Compressed) error) error {
	for i := range s.shards {
		if err := s.ScanShard(i, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanShard streams shard i's records in append order; readers that want
// shard-parallel scans call this from one goroutine per shard.
func (s *ShardedStore) ScanShard(i int, fn func(id uint64, ct *core.Compressed) error) error {
	if s.isClosed() {
		return ErrClosed
	}
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("store: shard %d out of range [0,%d)", i, len(s.shards))
	}
	sh := s.shards[i]
	snap := sh.snapshot()
	for j := range snap.ids {
		ct, err := sh.read(snap.offsets[j], snap.sizes[j])
		if err != nil {
			return err
		}
		ct.Summary = snap.sums[j]
		if err := fn(snap.ids[j], ct); err != nil {
			return err
		}
	}
	return nil
}

// ScanMeta visits the latest record of every live id — exactly the set Get
// serves — without reading any payloads: just the id, its revision, and
// its persisted BoundingSummary (nil when the record has none). This is
// how an index bootstraps or refreshes itself from the store in O(ids)
// time with zero decompression. Visit order is unspecified.
func (s *ShardedStore) ScanMeta(fn func(id uint64, rev uint64, sum *core.BoundingSummary) error) error {
	if s.isClosed() {
		return ErrClosed
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		ids := make([]uint64, 0, len(sh.slots))
		revs := make([]uint64, 0, len(sh.slots))
		sums := make([]*core.BoundingSummary, 0, len(sh.slots))
		for id, slot := range sh.slots {
			ids = append(ids, id)
			revs = append(revs, sh.revs[slot])
			sums = append(sums, sh.sums[slot])
		}
		sh.mu.RUnlock()
		for j := range ids {
			if err := fn(ids[j], revs[j], sums[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// IDs returns every stored id in Scan order (duplicates included).
func (s *ShardedStore) IDs() []uint64 {
	var out []uint64
	for _, sh := range s.shards {
		snap := sh.snapshot()
		out = append(out, snap.ids...)
	}
	return out
}

// Sync flushes all shards to stable storage.
func (s *ShardedStore) Sync() error {
	if s.isClosed() {
		return ErrClosed
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		err := sh.f.Sync()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard's file handle. Close is idempotent.
func (s *ShardedStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var first error
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		err := sh.f.Close()
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
