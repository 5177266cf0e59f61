package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskEntry feeds arbitrary bytes to the disk store's parsers: the
// entry header and payload (parseHeader, readEntry) and the index.json that
// Disk.load reads on open. Damage must surface as a clean error or miss,
// never a panic, and a hit must return exactly the payload its header
// describes.
//
//	go test ./internal/store -run '^$' -fuzz FuzzDiskEntry -fuzztime 10s
func FuzzDiskEntry(f *testing.F) {
	const key = "fingerprint-a"
	seedDir := f.TempDir()
	d, err := OpenDisk(seedDir, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	payload := []byte(`{"final_cycles":12345}` + "\n")
	d.Put(key, payload)
	d.Put("fingerprint-b", []byte("other"))
	d.Close()
	entry, err := os.ReadFile(d.entryPath(key))
	if err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(seedDir, diskIndexName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry, index)
	f.Add(entry[:len(entry)-3], []byte(`{"version":1,"keys":["fingerprint-a","fingerprint-a"]}`))
	lenLine := []byte(fmt.Sprintf("len %d\n", len(payload)))
	if !bytes.Contains(entry, lenLine) {
		f.Fatalf("seed entry has no %q line", lenLine)
	}
	f.Add(bytes.Replace(entry, lenLine, []byte("len 99999999999999\n"), 1), []byte(`{"version":2}`))
	f.Add(bytes.Replace(entry, lenLine, []byte("len -1\n"), 1), []byte(`{"keys":[1]}`))
	f.Add([]byte(diskMagic+"\nkey zz\n"), []byte("{"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, entry, index []byte) {
		hkey, length, sum, _, herr := parseHeader(bufio.NewReader(bytes.NewReader(entry)))
		if herr == nil && length < 0 {
			t.Fatalf("parseHeader accepted negative length %d", length)
		}

		// A store directory holding the bytes as key's entry, as an orphan
		// entry file the index does not name, and the fuzzed index.
		dir := t.TempDir()
		probe := &Disk{dir: dir}
		if err := os.WriteFile(probe.entryPath(key), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "orphan"+diskEntryExt), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, diskIndexName), index, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir, 1<<30)
		if err != nil {
			t.Fatalf("OpenDisk on corrupt contents: %v", err)
		}
		defer d.Close()
		for _, k := range []string{key, hkey} {
			val, ok := d.Get(k)
			if !ok {
				continue
			}
			// A hit means the bytes were a well-formed entry for k: the
			// header parsed, named k, and the payload ends the file with
			// the declared length and checksum.
			if herr != nil || hkey != k || len(val) != length || !bytes.HasSuffix(entry, val) {
				t.Fatalf("Get(%q) hit on a malformed entry: header err %v, key %q, len %d, payload %d bytes",
					k, herr, hkey, length, len(val))
			}
			got := sha256.Sum256(val)
			if sum != hex.EncodeToString(got[:]) {
				t.Fatalf("Get(%q) returned a payload whose checksum does not match the header", k)
			}
		}
	})
}
