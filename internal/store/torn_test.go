package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pblparallel/internal/obs"
)

// TestTornWriteRecovery is the crash-consistency sweep: an entry file
// truncated at EVERY byte offset — mid-magic, mid-key, mid-length,
// mid-digest, mid-stream — must be detected on read, healed by
// deletion, and never served. The atomic-rename write path makes torn
// entry files unreachable in practice; this test pins the behavior if
// one ever appears anyway (a crashed rename on a filesystem without
// atomicity, a partial restore, a truncated copy).
func TestTornWriteRecovery(t *testing.T) {
	// One full entry image to truncate, produced by a throwaway store.
	seed := openTest(t, t.TempDir(), Options{})
	k := keyOf([]byte("torn-write-victim"))
	body := []byte(`{"seed": 42, "students": 16, "speedup": 3.1}`)
	seed.Put(k, body)
	seed.Flush()
	raw, err := os.ReadFile(seed.path(k.Hex))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	dir := t.TempDir()
	sub := filepath.Join(dir, k.Hex[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, k.Hex+entrySuffix)

	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		got, ok, healed := s.Get(context.Background(), k)
		if ok {
			s.Close()
			t.Fatalf("cut %d/%d: truncated entry was SERVED (%d bytes)", cut, len(raw), len(got))
		}
		if !healed {
			// Even a zero-byte truncation indexes (the name is valid), so
			// every cut must be detected and reported as a heal.
			s.Close()
			t.Fatalf("cut %d/%d: truncation not healed", cut, len(raw))
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			s.Close()
			t.Fatalf("cut %d/%d: damaged file not deleted: %v", cut, len(raw), err)
		}
		s.Close()
	}

	// Sanity: the untruncated image still round-trips.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	got, ok, healed := s.Get(context.Background(), k)
	if !ok || healed || !bytes.Equal(got, body) {
		t.Fatalf("full image: ok=%v healed=%v body=%q", ok, healed, got)
	}
}

// TestTornTempFileNeverVisible walks the other half of the torn-write
// story: a crash before the rename leaves only a temp file, which Open
// removes and never indexes — at any truncation of the temp image.
func TestTornTempFileNeverVisible(t *testing.T) {
	seed := openTest(t, t.TempDir(), Options{})
	k := keyOf([]byte("torn-temp"))
	seed.Put(k, []byte("half-written"))
	seed.Flush()
	raw, err := os.ReadFile(seed.path(k.Hex))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	for _, cut := range []int{0, 1, headerSize / 2, headerSize, len(raw) - 1, len(raw)} {
		dir := t.TempDir()
		sub := filepath.Join(dir, k.Hex[:2])
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(sub, fmt.Sprintf("put-%d%s", cut, tmpSuffix))
		if err := os.WriteFile(tmp, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, Options{})
		if _, ok, _ := s.Get(context.Background(), k); ok {
			t.Fatalf("cut %d: temp file answered a Get", cut)
		}
		if st := s.Stats(); st.Entries != 0 {
			t.Fatalf("cut %d: temp file indexed (%d entries)", cut, st.Entries)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("cut %d: temp file survived Open: %v", cut, err)
		}
		s.Close()
	}
}
