package store

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a content-addressed, size-bounded, restart-surviving backend:
// each entry is one file under the store directory, named by the SHA-256
// of its key, holding a small self-describing header (key, payload length,
// payload checksum) followed by the payload bytes. Writes are crash-safe
// by construction — entries and the index are written to a temp file and
// renamed into place, so a crash mid-write leaves at worst a stale temp
// file that the next Open sweeps away, never a half-visible entry.
//
// The LRU order persists in an on-disk index (index.json, also written by
// rename) so eviction order survives restarts; entries present on disk
// but missing from the index (an older crash, a hand-copied file) are
// adopted as coldest rather than dropped. A corrupt or truncated entry —
// bad magic, key mismatch, short payload, checksum failure — is deleted
// and reported as a miss, never as an error: the cache above recomputes
// and the store heals.
//
// A Disk instance assumes it owns its directory; two processes sharing
// one directory are not supported (replicas in a fleet each get their
// own -cache-dir).
type Disk struct {
	mu        sync.Mutex
	dir       string
	maxBytes  int64
	order     *list.List               // front = most recently used, holds *diskEntry
	byKey     map[string]*list.Element // key -> element
	bytes     int64                    // sum of entry file sizes
	evictions uint64
	corrupt   uint64
	dirty     bool // in-memory recency order not yet flushed to index.json
}

type diskEntry struct {
	key  string
	size int64 // on-disk file size, header included
}

const (
	diskMagic     = "hybridpart-store-v1"
	diskEntryExt  = ".v1"
	diskIndexName = "index.json"
	diskTmpPrefix = ".tmp-"
)

// diskIndex is the JSON shape of index.json: keys in most-recently-used
// order. Sizes are re-stat'd at Open, so the index carries order only.
type diskIndex struct {
	Version int      `json:"version"`
	Keys    []string `json:"keys"`
}

// OpenDisk opens (or adopts) the store rooted at dir, bounded to maxBytes
// of entry files (minimum 1). dir must already exist and be writable —
// the caller owns directory-creation policy.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("store: %s is not a directory", dir)
	}
	if maxBytes < 1 {
		maxBytes = 1
	}
	d := &Disk{
		dir:      dir,
		maxBytes: maxBytes,
		order:    list.New(),
		byKey:    make(map[string]*list.Element),
	}
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, nil
}

// entryPath is the file holding key's entry. The name is the SHA-256 of
// the key so arbitrary key strings map to safe, fixed-length file names.
func (d *Disk) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+diskEntryExt)
}

// load rebuilds the in-memory index from the directory: the on-disk index
// supplies recency order, the entry files themselves are the truth about
// what exists. Unreadable index, unknown files and stale temp files are
// all tolerated.
func (d *Disk) load() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Map present entry files to their sizes; sweep temp droppings.
	onDisk := map[string]int64{} // file name -> size
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, diskTmpPrefix) {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		if !strings.HasSuffix(name, diskEntryExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		onDisk[name] = info.Size()
	}
	// The index orders keys MRU-first; adopt every key whose file survives.
	var idx diskIndex
	if raw, err := os.ReadFile(filepath.Join(d.dir, diskIndexName)); err == nil {
		if json.Unmarshal(raw, &idx) != nil || idx.Version != 1 {
			idx.Keys = nil // corrupt index: fall back to adoption below
		}
	}
	seen := map[string]bool{}
	for _, key := range idx.Keys {
		name := filepath.Base(d.entryPath(key))
		size, ok := onDisk[name]
		if !ok || seen[name] {
			continue
		}
		seen[name] = true
		d.byKey[key] = d.order.PushBack(&diskEntry{key: key, size: size})
		d.bytes += size
	}
	// Entry files the index does not know (crash before an index flush,
	// files copied in by hand): recover their keys from the header and
	// adopt them as coldest, deterministically ordered by name.
	var orphans []string
	for name := range onDisk {
		if !seen[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		path := filepath.Join(d.dir, name)
		key, _, err := readEntryHeader(path)
		if err != nil {
			os.Remove(path)
			d.corrupt++
			continue
		}
		if _, dup := d.byKey[key]; dup {
			os.Remove(path)
			continue
		}
		d.byKey[key] = d.order.PushBack(&diskEntry{key: key, size: onDisk[name]})
		d.bytes += onDisk[name]
	}
	d.evictLocked()
	d.writeIndexLocked()
	return nil
}

// Get returns the stored payload for key, verifying it against the header
// checksum. Any damage — missing file, bad magic, key mismatch, short or
// over-long payload, checksum failure — drops the entry and reports a
// miss.
func (d *Disk) Get(key string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.byKey[key]
	if !ok {
		return nil, false
	}
	path := d.entryPath(key)
	val, err := readEntry(path, key)
	if err != nil {
		d.dropLocked(el)
		os.Remove(path)
		d.corrupt++
		return nil, false
	}
	d.order.MoveToFront(el)
	d.dirty = true // recency changed; flushed on the next Put or Close
	return val, true
}

// Put stores (or refreshes) key, evicting least-recently-used entries to
// stay within the byte bound, and flushes the index. Best-effort: a write
// failure (disk full, permissions) leaves the store without the entry and
// the caller none the wiser — the cache above simply recomputes next time.
func (d *Disk) Put(key string, val []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := d.entryPath(key)
	size, err := writeEntry(d.dir, path, key, val)
	if err != nil {
		if el, ok := d.byKey[key]; ok { // stale entry may now be damaged
			d.dropLocked(el)
			os.Remove(path)
		}
		return
	}
	if el, ok := d.byKey[key]; ok {
		ent := el.Value.(*diskEntry)
		d.bytes += size - ent.size
		ent.size = size
		d.order.MoveToFront(el)
	} else {
		d.byKey[key] = d.order.PushFront(&diskEntry{key: key, size: size})
		d.bytes += size
	}
	d.evictLocked()
	d.writeIndexLocked()
}

// evictLocked drops least-recently-used entries until the store fits the
// byte bound. The most recent entry always survives, even when it alone
// exceeds the bound — evicting what was just stored would make the store
// thrash on every Put.
func (d *Disk) evictLocked() {
	for d.bytes > d.maxBytes && d.order.Len() > 1 {
		oldest := d.order.Back()
		ent := oldest.Value.(*diskEntry)
		d.dropLocked(oldest)
		os.Remove(d.entryPath(ent.key))
		d.evictions++
	}
}

// dropLocked removes an entry from the in-memory index (not from disk).
func (d *Disk) dropLocked(el *list.Element) {
	ent := el.Value.(*diskEntry)
	d.order.Remove(el)
	delete(d.byKey, ent.key)
	d.bytes -= ent.size
	d.dirty = true
}

// writeIndexLocked persists the recency order crash-safely (temp+rename).
func (d *Disk) writeIndexLocked() {
	idx := diskIndex{Version: 1, Keys: make([]string, 0, d.order.Len())}
	for el := d.order.Front(); el != nil; el = el.Next() {
		idx.Keys = append(idx.Keys, el.Value.(*diskEntry).key)
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(d.dir, diskTmpPrefix+"index-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), filepath.Join(d.dir, diskIndexName)) == nil {
		d.dirty = false
	} else {
		os.Remove(tmp.Name())
	}
}

// Len returns the current number of stored entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.order.Len()
}

// Stats reports the backend-owned counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Evictions:     d.evictions,
		Size:          d.order.Len(),
		SizeBytes:     d.bytes,
		CapacityBytes: d.maxBytes,
		Corrupt:       d.corrupt,
	}
}

// Close flushes the recency order to the on-disk index.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dirty {
		d.writeIndexLocked()
	}
	return nil
}

// writeEntry writes one entry file crash-safely and returns its size.
func writeEntry(dir, path, key string, val []byte) (int64, error) {
	sum := sha256.Sum256(val)
	var buf bytes.Buffer
	// The key is hex-encoded so arbitrary key strings (newlines included)
	// cannot break the line-oriented header.
	fmt.Fprintf(&buf, "%s\nkey %s\nlen %d\nsum %s\n\n",
		diskMagic, hex.EncodeToString([]byte(key)), len(val), hex.EncodeToString(sum[:]))
	buf.Write(val)
	tmp, err := os.CreateTemp(dir, diskTmpPrefix+"entry-*")
	if err != nil {
		return 0, err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return int64(buf.Len()), nil
}

// readEntryHeader parses just the header of an entry file, returning the
// key it claims and the payload length.
func readEntryHeader(path string) (key string, length int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	key, length, _, _, err = parseHeader(bufio.NewReader(f))
	return key, length, err
}

// readEntry reads and verifies one entry file: the magic, the key it was
// stored under, the payload length and the payload checksum must all
// match, or the entry is damaged.
func readEntry(path, wantKey string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	key, length, sum, _, err := parseHeader(r)
	if err != nil {
		return nil, err
	}
	if key != wantKey {
		return nil, fmt.Errorf("store: entry %s holds key %q, want %q", path, key, wantKey)
	}
	// A payload longer than the file is truncation; checking before the
	// allocation keeps a corrupt length from sizing a huge buffer.
	if int64(length) > info.Size() {
		return nil, fmt.Errorf("store: entry %s truncated: header claims %d payload bytes", path, length)
	}
	val := make([]byte, length)
	if _, err := io.ReadFull(r, val); err != nil {
		return nil, fmt.Errorf("store: entry %s truncated: %w", path, err)
	}
	// Trailing garbage after the declared payload is damage too.
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: entry %s has trailing bytes", path)
	}
	got := sha256.Sum256(val)
	if hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("store: entry %s payload checksum mismatch", path)
	}
	return val, nil
}

// parseHeader reads the five header lines: magic, "key <k>", "len <n>",
// "sum <hex>", blank separator.
func parseHeader(r *bufio.Reader) (key string, length int, sum, magic string, err error) {
	line := func() (string, error) {
		s, err := r.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimSuffix(s, "\n"), nil
	}
	if magic, err = line(); err != nil || magic != diskMagic {
		return "", 0, "", magic, fmt.Errorf("store: bad magic %q", magic)
	}
	kl, err := line()
	if err != nil || !strings.HasPrefix(kl, "key ") {
		return "", 0, "", magic, fmt.Errorf("store: bad key line")
	}
	rawKey, err := hex.DecodeString(strings.TrimPrefix(kl, "key "))
	if err != nil {
		return "", 0, "", magic, fmt.Errorf("store: bad key encoding: %w", err)
	}
	key = string(rawKey)
	ll, err := line()
	if err != nil {
		return "", 0, "", magic, fmt.Errorf("store: bad len line")
	}
	if _, err := fmt.Sscanf(ll, "len %d", &length); err != nil || length < 0 {
		return "", 0, "", magic, fmt.Errorf("store: bad len line %q", ll)
	}
	sl, err := line()
	if err != nil || !strings.HasPrefix(sl, "sum ") {
		return "", 0, "", magic, fmt.Errorf("store: bad sum line")
	}
	sum = strings.TrimPrefix(sl, "sum ")
	if blank, err := line(); err != nil || blank != "" {
		return "", 0, "", magic, fmt.Errorf("store: missing header separator")
	}
	return key, length, sum, magic, nil
}
