package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultDiskMaxBytes bounds a Disk tier built with a non-positive byte
// budget: 1 GiB of canonical result bytes.
const DefaultDiskMaxBytes = 1 << 30

// diskMagic heads every entry file, followed by the hex SHA-256 of the
// payload and a newline. An entry that does not round-trip through this
// framing — torn write, truncation, bit rot — is quarantined, never served.
const diskMagic = "soterstore1 "

// quarantineDir is the subdirectory corrupt entries are moved into. They are
// kept (not deleted) so an operator can inspect what went wrong; the store
// itself never reads them again.
const quarantineDir = "quarantine"

// Disk is tier 1: a crash-safe directory of canonical result bytes, sharded
// by the first two hex digits of the fingerprint (256 buckets, so no single
// directory grows unbounded). Writes are atomic — payload to a temp file in
// the target shard, fsync, rename — so a crash mid-write leaves at worst a
// temp file that the next open sweeps away, never a half-visible entry.
// Reads re-hash the payload against the embedded checksum and quarantine
// mismatches instead of serving them. The tier is bounded in bytes with
// least-recently-accessed eviction; access times are persisted as file
// mtimes, so recency survives a restart.
type Disk struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	closed  bool
	index   map[string]*diskEntry
	bytes   int64
	clock   int64 // logical access clock: higher = more recent
	hits    int64
	misses  int64
	evicted int64
	quarant int64
	errors  int64
}

// diskEntry is the in-memory bookkeeping of one stored file.
type diskEntry struct {
	size  int64
	atime int64 // logical clock value of the last access
}

// NewDisk opens (creating if needed) a disk tier rooted at dir, bounded at
// maxBytes of payload (DefaultDiskMaxBytes when not positive). Leftover temp
// files from a crashed writer are removed, and the surviving entries are
// indexed with their recency order recovered from file mtimes.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open disk tier: %w", err)
	}
	d := &Disk{
		dir:      dir,
		maxBytes: maxBytes,
		index:    make(map[string]*diskEntry),
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// scan rebuilds the index from the directory: sweep temp files, stat entries,
// and replay their mtimes into the logical access clock so eviction order
// picks up where the previous process left off.
func (d *Disk) scan() error {
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: scan disk tier: %w", err)
	}
	type aged struct {
		key   string
		size  int64
		mtime time.Time
	}
	var entries []aged
	for _, shard := range shards {
		if !shard.IsDir() || shard.Name() == quarantineDir {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			path := filepath.Join(d.dir, shard.Name(), name)
			if strings.HasPrefix(name, "tmp-") {
				// A writer died mid-write; the entry was never visible.
				os.Remove(path)
				continue
			}
			if !ValidKey(name) || !strings.HasPrefix(name, shard.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, aged{key: name, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		d.clock++
		d.index[e.key] = &diskEntry{size: e.size, atime: d.clock}
		d.bytes += e.size
	}
	return nil
}

// path returns the entry file for key: dir/<key[:2]>/<key>.
func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key[:2], key)
}

// Get reads, verifies and returns the entry for key. A missing key is a
// plain miss; an unreadable or corrupt entry is quarantined and reported as
// a miss, so the caller recomputes it — corruption is never fatal and never
// served.
func (d *Disk) Get(_ context.Context, key string) ([]byte, bool) {
	d.mu.Lock()
	if d.closed || !ValidKey(key) {
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	if _, ok := d.index[key]; !ok {
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Unlock()

	path := d.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Evicted or removed between the index check and the read.
		d.mu.Lock()
		d.misses++
		if !os.IsNotExist(err) {
			d.errors++
		}
		d.mu.Unlock()
		return nil, false
	}
	val, ok := decodeEntry(raw)
	if !ok {
		d.quarantine(key, path)
		return nil, false
	}

	now := time.Now()
	d.mu.Lock()
	if e, ok := d.index[key]; ok {
		d.clock++
		e.atime = d.clock
	}
	d.hits++
	d.mu.Unlock()
	// Persist the access so LRU order survives a restart (mtime is the
	// durable atime: filesystems commonly mount noatime). Best effort.
	_ = os.Chtimes(path, now, now)
	return val, true
}

// decodeEntry strips and verifies the framing: magic, hex checksum, newline,
// payload. ok is false for any truncated, malformed or checksum-mismatched
// entry.
func decodeEntry(raw []byte) ([]byte, bool) {
	if !bytes.HasPrefix(raw, []byte(diskMagic)) {
		return nil, false
	}
	rest := raw[len(diskMagic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl != 64 { // hex SHA-256
		return nil, false
	}
	sum, payload := string(rest[:nl]), rest[nl+1:]
	if Sum(payload) != sum {
		return nil, false
	}
	return payload, true
}

// encodeEntry frames a payload for disk.
func encodeEntry(val []byte) []byte {
	out := make([]byte, 0, len(diskMagic)+65+len(val))
	out = append(out, diskMagic...)
	out = append(out, Sum(val)...)
	out = append(out, '\n')
	return append(out, val...)
}

// quarantine moves a corrupt entry aside and drops it from the index.
func (d *Disk) quarantine(key, path string) {
	d.mu.Lock()
	if e, ok := d.index[key]; ok {
		delete(d.index, key)
		d.bytes -= e.size
	}
	d.quarant++
	d.misses++
	d.mu.Unlock()
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		_ = os.Rename(path, filepath.Join(qdir, key))
	}
}

// Put atomically persists val under key: temp file in the target shard,
// fsync, rename into place. Entries beyond the byte budget are evicted
// least-recently-accessed first. IO failures degrade to a dropped write (the
// entry simply is not cached), never an error to the caller.
func (d *Disk) Put(ctx context.Context, key string, val []byte) {
	if !ValidKey(key) {
		return
	}
	framed := encodeEntry(val)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	shard := filepath.Join(d.dir, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		d.errors++
		return
	}
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		d.errors++
		return
	}
	_, werr := tmp.Write(framed)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), d.path(key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		d.errors++
		return
	}
	syncDir(shard)
	size := int64(len(framed))
	d.clock++
	if e, ok := d.index[key]; ok {
		d.bytes += size - e.size
		e.size, e.atime = size, d.clock
	} else {
		d.index[key] = &diskEntry{size: size, atime: d.clock}
		d.bytes += size
	}
	d.evictLocked(ctx)
}

// evictLocked removes least-recently-accessed entries until the tier fits
// its byte budget again. The scan honours ctx so a cancelled caller never
// hangs on a long eviction pass. Callers hold d.mu.
func (d *Disk) evictLocked(ctx context.Context) {
	for d.bytes > d.maxBytes && len(d.index) > 1 {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		oldest, oldestAt := "", int64(0)
		first := true
		for key, e := range d.index {
			if first || e.atime < oldestAt {
				oldest, oldestAt = key, e.atime
				first = false
			}
		}
		e := d.index[oldest]
		delete(d.index, oldest)
		d.bytes -= e.size
		d.evicted++
		_ = os.Remove(d.path(oldest))
	}
}

// syncDir fsyncs a directory so a rename is durable before Put returns.
// Best effort: some platforms refuse directory fsync.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	_ = f.Close()
}

// Stats returns a snapshot of the counters.
func (d *Disk) Stats() TierStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return TierStats{
		Entries:     len(d.index),
		Bytes:       d.bytes,
		MaxBytes:    d.maxBytes,
		Hits:        d.hits,
		Misses:      d.misses,
		Evictions:   d.evicted,
		Quarantined: d.quarant,
		Errors:      d.errors,
	}
}

// Close marks the tier closed; entries are already durable, so there is
// nothing to flush.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
