package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pblparallel/internal/obs"
)

// benchBody approximates a /v1/run response: ~4 KB of indented JSON.
func benchBody() []byte {
	var buf bytes.Buffer
	buf.WriteString("{\n  \"students\": [\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&buf, "    {\"id\": %d, \"serial_ms\": %d, \"parallel_ms\": %d, \"speedup\": %d.%02d},\n",
			i, 4000+i*13, 1200+i*7, 3, i)
	}
	buf.WriteString("  ]\n}\n")
	return buf.Bytes()
}

// BenchmarkDiskHit is the read-through cost a restarted daemon pays
// per memory miss: ReadFile + header verify + inflate + CRC32 + SHA-256.
func BenchmarkDiskHit(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	k := keyOf([]byte("bench|disk-hit"))
	body := benchBody()
	s.Put(k, body)
	s.Flush()
	ctx := context.Background()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok, _ := s.Get(ctx, k)
		if !ok || len(got) != len(body) {
			b.Fatalf("ok=%v len=%d", ok, len(got))
		}
	}
}

// BenchmarkDiskPut is the write-behind cost per spill: deflate +
// temp file + atomic rename + index. doPut is called directly so the
// benchmark measures the write itself, not channel hand-off.
func BenchmarkDiskPut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := benchBody()
	keys := make([]Key, b.N)
	for i := range keys {
		keys[i] = keyOf([]byte(fmt.Sprintf("bench|disk-put|%d", i)))
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.doPut(keys[i], body)
	}
}

// BenchmarkCompress isolates the codec's encode half (header + deflate
// at BestSpeed into a reused buffer).
func BenchmarkCompress(b *testing.B) {
	k := keyOf([]byte("bench|compress"))
	body := benchBody()
	var buf bytes.Buffer
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := encodeEntry(k, body, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompress isolates the decode half (verify + inflate +
// both digests) over one encoded image.
func BenchmarkDecompress(b *testing.B) {
	k := keyOf([]byte("bench|decompress"))
	body := benchBody()
	var buf bytes.Buffer
	if err := encodeEntry(k, body, &buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := decodeEntry(k, raw)
		if err != nil || len(got) != len(body) {
			b.Fatalf("err=%v len=%d", err, len(got))
		}
	}
}
