package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// keyOf hashes a canonical request representation the way the serving
// cache derives its keys.
func keyOf(canonical []byte) Key {
	return NewKey(sha256.Sum256(canonical))
}

// openTest opens a store over a fresh temp directory with a private
// metrics registry, closing it when the test ends.
func openTest(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(s.Close)
	return s
}

func testInjector(t *testing.T, rules ...fault.Rule) *fault.Injector {
	t.Helper()
	inj, err := fault.New(fault.Plan{Seed: 1, Rules: rules})
	if err != nil {
		t.Fatalf("fault.New: %v", err)
	}
	return inj
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	body := []byte(`{"seed": 7, "speedup": 3.4}`)
	k := keyOf([]byte("run|seed=7"))

	if _, ok, healed := s.Get(context.Background(), k); ok || healed {
		t.Fatalf("Get before Put: ok=%v healed=%v, want miss", ok, healed)
	}
	s.Put(k, body)
	s.Flush()
	got, ok, healed := s.Get(context.Background(), k)
	if !ok || healed {
		t.Fatalf("Get after Put: ok=%v healed=%v", ok, healed)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, want %q", got, body)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.DiskHits != 1 || st.DiskMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats.Bytes = %d, want > 0", st.Bytes)
	}
}

// TestReopen is the persistence contract: a second store over the same
// directory serves every entry the first one wrote.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		k := keyOf([]byte(fmt.Sprintf("run|seed=%d", i)))
		s1.Put(k, []byte(fmt.Sprintf(`{"seed": %d}`, i)))
	}
	s1.Close()

	s2 := openTest(t, dir, Options{})
	if st := s2.Stats(); st.Entries != n {
		t.Fatalf("reopened entries = %d, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		k := keyOf([]byte(fmt.Sprintf("run|seed=%d", i)))
		got, ok, _ := s2.Get(context.Background(), k)
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf(`{"seed": %d}`, i))) {
			t.Fatalf("seed %d after reopen: ok=%v body=%q", i, ok, got)
		}
	}
}

// TestOpenRemovesTempFiles asserts crash debris never survives a
// restart: leftover temp files are deleted and not indexed.
func TestOpenRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "put-123.tmp")
	if err := os.WriteFile(tmp, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d, want 0", st.Entries)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open: %v", err)
	}
}

// TestEviction bounds the tier: writes past MaxBytes evict the least
// recently used entries (their files too), never the newest one.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	// Entries are incompressible (hash chains), so each stays ~1 KiB on
	// disk and a 2 KiB bound forces evictions within a few puts.
	s := openTest(t, dir, Options{MaxBytes: 2 << 10})
	const n = 16
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = keyOf([]byte(fmt.Sprintf("evict|%d", i)))
		body := make([]byte, 0, 1024)
		chain := keys[i].Sum
		for len(body) < 1024 {
			chain = sha256.Sum256(chain[:])
			body = append(body, chain[:]...)
		}
		s.Put(keys[i], body)
	}
	s.Flush()
	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions past a %d-byte bound after %d puts (bytes=%d)", 2<<10, n, st.Bytes)
	}
	if st.Entries < 1 {
		t.Fatalf("entries = %d, want >= 1", st.Entries)
	}
	// The most recent entry survives.
	if _, ok, _ := s.Get(context.Background(), keys[n-1]); !ok {
		t.Fatal("newest entry was evicted")
	}
	// Evicted files are gone from disk, not just the index.
	var files int
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, _ error) error {
		if d != nil && !d.IsDir() {
			files++
		}
		return nil
	})
	if files != s.Stats().Entries {
		t.Fatalf("%d files on disk, index holds %d", files, s.Stats().Entries)
	}
}

// TestRealCorruptionHealed flips a byte of the file on disk: the next
// Get must refuse to serve it, delete it, and report the heal.
func TestRealCorruptionHealed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	k := keyOf([]byte("corrupt-me"))
	s.Put(k, []byte(`{"seed": 1, "speedup": 2.0}`))
	s.Flush()

	path := s.path(k.Hex)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, ok, healed := s.Get(context.Background(), k)
	if ok || !healed || got != nil {
		t.Fatalf("corrupted Get: ok=%v healed=%v body=%q", ok, healed, got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not deleted: %v", err)
	}
	if st := s.Stats(); st.CorruptionsHealed != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The heal is complete after a re-put: the tier serves again.
	s.Put(k, []byte(`{"seed": 1, "speedup": 2.0}`))
	s.Flush()
	if _, ok, _ := s.Get(context.Background(), k); !ok {
		t.Fatal("re-put after heal did not serve")
	}
}

// TestWrongKeyFile plants a valid entry under another key's file name:
// the header key check must refuse it, whatever its digests say.
func TestWrongKeyFile(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	ka := keyOf([]byte("entry-a"))
	s.Put(ka, []byte("payload A"))
	s.Flush()
	s.Close()

	// Cross-link: entry A's bytes under key B's name.
	kb := keyOf([]byte("entry-b"))
	raw, err := os.ReadFile(filepath.Join(dir, ka.Hex[:2], ka.Hex+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, kb.Hex[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, kb.Hex+entrySuffix), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	got, ok, healed := s2.Get(context.Background(), kb)
	if ok || !healed {
		t.Fatalf("cross-linked Get: ok=%v healed=%v body=%q", ok, healed, got)
	}
}

// TestInjectedCorruptionHealed arms store.corrupt at probability 1:
// every read detects the damage, heals, and never serves bad bytes.
func TestInjectedCorruptionHealed(t *testing.T) {
	dir := t.TempDir()
	inj := testInjector(t, fault.Rule{Site: fault.SiteStoreCorrupt, Kind: fault.CacheCorrupt, Prob: 1})
	s := openTest(t, dir, Options{Injector: inj})
	k := keyOf([]byte("injected-corrupt"))
	s.Put(k, []byte("precious bytes"))
	s.Flush()

	got, ok, healed := s.Get(context.Background(), k)
	if ok || !healed || got != nil {
		t.Fatalf("injected-corrupt Get: ok=%v healed=%v body=%q", ok, healed, got)
	}
	if _, err := os.Stat(s.path(k.Hex)); !os.IsNotExist(err) {
		t.Fatalf("healed file still on disk: %v", err)
	}
	if st := s.Stats(); st.CorruptionsHealed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInjectedReadError degrades to a miss and leaves the file intact:
// a second store without the injector still serves the entry.
func TestInjectedReadError(t *testing.T) {
	dir := t.TempDir()
	inj := testInjector(t, fault.Rule{Site: fault.SiteStoreRead, Kind: fault.DiskReadErr, Prob: 1})
	s := openTest(t, dir, Options{Injector: inj})
	k := keyOf([]byte("read-err"))
	body := []byte("still here")
	s.Put(k, body)
	s.Flush()

	if _, ok, healed := s.Get(context.Background(), k); ok || healed {
		t.Fatalf("injected read error served: ok=%v healed=%v", ok, healed)
	}
	if st := s.Stats(); st.ReadErrors != 1 || st.CorruptionsHealed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	s.Close()

	clean := openTest(t, dir, Options{})
	got, ok, _ := clean.Get(context.Background(), k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("entry lost to an injected read error: ok=%v body=%q", ok, got)
	}
}

// TestInjectedWriteError drops the spill: no file lands and a probe
// misses, which a caller absorbs by recomputing.
func TestInjectedWriteError(t *testing.T) {
	dir := t.TempDir()
	inj := testInjector(t, fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.DiskWriteErr, Prob: 1})
	s := openTest(t, dir, Options{Injector: inj})
	k := keyOf([]byte("write-err"))
	s.Put(k, []byte("never lands"))
	s.Flush()

	if _, ok, _ := s.Get(context.Background(), k); ok {
		t.Fatal("entry served despite injected write error")
	}
	st := s.Stats()
	if st.WriteErrors != 1 || st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPutAfterCloseIsSilent asserts the drain contract: Put and Flush
// on a closed store are no-ops, not panics — the serving cache may
// still be spilling while the daemon shuts down.
func TestPutAfterCloseIsSilent(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	s.Close()
	s.Put(keyOf([]byte("late")), []byte("dropped"))
	s.Flush()
	s.Close() // idempotent
}

// TestConcurrent hammers Get/Put/Flush from many goroutines — run
// under -race this is the tier's data-race assertion.
func TestConcurrent(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{MaxBytes: 8 << 10})
	const (
		workers = 8
		rounds  = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := keyOf([]byte(fmt.Sprintf("conc|%d", i%16)))
				switch i % 3 {
				case 0:
					s.Put(k, []byte(fmt.Sprintf(`{"i": %d}`, i%16)))
				case 1:
					s.Get(context.Background(), k)
				default:
					s.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEncodeDecode exercises the codec directly, including the
// trailing-garbage and short-header corruption classes the file-level
// tests cannot hit precisely.
func TestEncodeDecode(t *testing.T) {
	k := keyOf([]byte("codec"))
	body := bytes.Repeat([]byte("the same bytes at any worker count; "), 64)
	var buf bytes.Buffer
	if err := encodeEntry(k, body, &buf); err != nil {
		t.Fatalf("encodeEntry: %v", err)
	}
	got, err := decodeEntry(k, buf.Bytes())
	if err != nil {
		t.Fatalf("decodeEntry: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("roundtrip mismatch")
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"short-header":   func(raw []byte) []byte { return raw[:headerSize-1] },
		"bad-magic":      func(raw []byte) []byte { raw[0] = 'X'; return raw },
		"bad-version":    func(raw []byte) []byte { raw[4] = 9; return raw },
		"bad-key":        func(raw []byte) []byte { raw[5] ^= 0xFF; return raw },
		"bad-crc":        func(raw []byte) []byte { raw[45] ^= 0xFF; return raw },
		"bad-sha":        func(raw []byte) []byte { raw[49] ^= 0xFF; return raw },
		"bad-length":     func(raw []byte) []byte { raw[44]--; return raw }, // header and stream disagree
		"stream-damage":  func(raw []byte) []byte { raw[headerSize] ^= 0xFF; return raw },
		"stream-missing": func(raw []byte) []byte { return raw[:headerSize] },
		"oversized-length": func(raw []byte) []byte {
			binary.BigEndian.PutUint64(raw[37:45], maxPayload)
			return raw
		},
	} {
		raw := mutate(append([]byte(nil), buf.Bytes()...))
		// A damaged header must be rejected without allocating what it
		// claims: every disk probe of the daemon decodes such files.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeEntry(k, raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decodeEntry accepted corrupt entry", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: decoding a corrupt entry allocated %d bytes, want < 1 MB", name, n)
		}
	}
}

// FuzzDecodeEntry feeds arbitrary file images to the entry decoder.
// It must never panic, every rejection must classify as ErrCorrupt
// (the daemon's heal path keys on it), and any accepted body must
// survive an encode/decode round trip unchanged.
func FuzzDecodeEntry(f *testing.F) {
	k := keyOf([]byte("fuzz"))
	var valid bytes.Buffer
	if err := encodeEntry(k, []byte(`{"seed": 7, "workers": 8}`), &valid); err != nil {
		f.Fatal(err)
	}
	oversized := append([]byte(nil), valid.Bytes()...)
	binary.BigEndian.PutUint64(oversized[37:45], maxPayload)
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, raw []byte) {
		body, err := decodeEntry(k, raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := encodeEntry(k, body, &again); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := decodeEntry(k, again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatal("re-encoded entry decodes to different bytes")
		}
	})
}
