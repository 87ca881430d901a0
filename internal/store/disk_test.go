package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seedDisk fills a fresh disk tier with n distinct entries and returns their
// keys and values.
func seedDisk(t *testing.T, d *Disk, n int) (keys []string, vals [][]byte) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%032x", i+1)
		val := []byte(fmt.Sprintf(`{"metrics":{"targets_visited":%d}}`, i))
		d.Put(ctx, key, val)
		keys = append(keys, key)
		vals = append(vals, val)
	}
	return keys, vals
}

// TestDiskRoundTrip: what goes in comes out, and counters are honest.
func TestDiskRoundTrip(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys, vals := seedDisk(t, d, 3)
	for i, key := range keys {
		got, ok := d.Get(context.Background(), key)
		if !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("Get(%s) = %q, %v; want %q, true", key, got, ok, vals[i])
		}
	}
	st := d.Stats()
	if st.Entries != 3 || st.Hits != 3 || st.Quarantined != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDiskRestartByteIdentical is the durability golden: a store reopened on
// the same directory serves every entry byte-identical to what the previous
// process cached, with recency preserved.
func TestDiskRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := seedDisk(t, d, 4)
	// Golden: the pre-restart reads.
	golden := make([][]byte, len(keys))
	for i, key := range keys {
		got, ok := d.Get(context.Background(), key)
		if !ok {
			t.Fatalf("pre-restart Get(%s) missed", key)
		}
		golden[i] = got
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := reopened.Stats().Entries; n != len(keys) {
		t.Fatalf("reopened store indexed %d entries, want %d", n, len(keys))
	}
	for i, key := range keys {
		got, ok := reopened.Get(context.Background(), key)
		if !ok {
			t.Fatalf("post-restart Get(%s) missed", key)
		}
		if !bytes.Equal(got, golden[i]) || !bytes.Equal(got, vals[i]) {
			t.Fatalf("post-restart bytes for %s diverge:\n pre  %q\n post %q", key, golden[i], got)
		}
	}
}

// TestDiskKilledWriterLeavesNoEntry: a writer that died mid-write leaves only
// a temp file, which the next open sweeps away — never a half-visible entry.
func TestDiskKilledWriterLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := seedDisk(t, d, 1)
	_ = d.Close()

	// Simulate the crash: a torn temp file in an entry shard, exactly what a
	// kill between CreateTemp and rename leaves behind.
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(shard, "tmp-123456")
	if err := os.WriteFile(tmp, []byte("torn half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, statErr := os.Stat(tmp); !os.IsNotExist(statErr) {
		t.Errorf("temp file survived reopen: %v", statErr)
	}
	if n := reopened.Stats().Entries; n != 1 {
		t.Errorf("reopened store indexed %d entries, want only the committed one", n)
	}
	if _, ok := reopened.Get(context.Background(), keys[0]); !ok {
		t.Error("committed entry lost while sweeping temp files")
	}
}

// TestDiskCorruptEntryQuarantined: a hand-corrupted entry is reported as a
// miss, moved into quarantine/ for inspection, and the key is recomputable —
// a fresh Put stores and serves clean bytes again.
func TestDiskCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys, vals := seedDisk(t, d, 1)
	key := keys[0]

	// Flip payload bytes behind the store's back — bit rot.
	path := filepath.Join(dir, key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(context.Background(), key); ok {
		t.Fatal("corrupt entry was served")
	}
	if st := d.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("after corruption: stats = %+v, want 1 quarantined, 0 entries", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, key)); err != nil {
		t.Errorf("corrupt entry not preserved in quarantine: %v", err)
	}
	// Truncation is the other corruption shape; it must quarantine too, not
	// panic on short framing.
	d.Put(context.Background(), key, vals[0])
	if err := os.WriteFile(path, []byte(diskMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(context.Background(), key); ok {
		t.Fatal("truncated entry was served")
	}

	// The key recomputes: a fresh Put round-trips.
	d.Put(context.Background(), key, vals[0])
	got, ok := d.Get(context.Background(), key)
	if !ok || !bytes.Equal(got, vals[0]) {
		t.Fatalf("recomputed entry = %q, %v; want %q, true", got, ok, vals[0])
	}
}

// TestDiskEvictionLRUByBytes: the tier honours its byte bound by evicting the
// least-recently-accessed entries first, and a restart preserves the order
// (atimes persisted as mtimes).
func TestDiskEvictionLRUByBytes(t *testing.T) {
	dir := t.TempDir()
	// Each framed entry is len(diskMagic)+65+len(val) bytes; size the budget
	// to hold roughly two entries.
	val := bytes.Repeat([]byte("x"), 100)
	frame := int64(len(encodeEntry(val)))
	d, err := NewDisk(dir, 2*frame)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	k1, k2, k3 := fmt.Sprintf("%032x", 1), fmt.Sprintf("%032x", 2), fmt.Sprintf("%032x", 3)
	d.Put(ctx, k1, val)
	d.Put(ctx, k2, val)
	if _, ok := d.Get(ctx, k1); !ok { // refresh k1; k2 is now LRU
		t.Fatal("k1 missing")
	}
	d.Put(ctx, k3, val) // over budget: evicts k2
	if _, ok := d.Get(ctx, k2); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := d.Get(ctx, k1); !ok {
		t.Error("recently-used entry evicted")
	}
	if st := d.Stats(); st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Errorf("stats = %+v", st)
	}
}

// FuzzDiskEntry: the disk-tier framing never panics and is deterministic;
// framing any payload and decoding it returns the payload; and every input
// decodeEntry accepts is exactly the framing of what it returns, so an entry
// file that is not byte-for-byte magic, checksum, newline, payload is
// quarantined rather than served.
func FuzzDiskEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if got, ok := decodeEntry(encodeEntry(raw)); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("framed payload %q decodes to %q, ok=%v", raw, got, ok)
		}
		val, ok := decodeEntry(raw)
		again, okAgain := decodeEntry(raw)
		if ok != okAgain || !bytes.Equal(val, again) {
			t.Fatalf("nondeterministic decode of %q: %q, %v then %q, %v", raw, val, ok, again, okAgain)
		}
		if ok && !bytes.Equal(encodeEntry(val), raw) {
			t.Fatalf("accepted entry %q re-encodes to %q", raw, encodeEntry(val))
		}
	})
}
