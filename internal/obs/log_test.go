package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a mutex-guarded string sink for logger races.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestLoggerLine(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf, LogDebug).With("test")
	tc := TraceContext{Trace: NewTraceID()}
	ctx := ContextWithTrace(context.Background(), tc)
	l.Info(ctx, "cache miss", "key", "abc123", "n", 7, "d", 250*time.Millisecond,
		"ok", true, "ratio", 0.5, "err", errors.New("boom boom"))

	line := strings.TrimSuffix(buf.String(), "\n")
	for _, want := range []string{
		"ts=", " level=info", " comp=test",
		" trace=" + tc.Trace.String(),
		" msg=\"cache miss\"", " key=abc123", " n=7", " d=250ms",
		" ok=true", " ratio=0.5", ` err="boom boom"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", buf.String())
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf, LogWarn)
	l.Debug(context.Background(), "d")
	l.Info(context.Background(), "i")
	l.Warn(context.Background(), "w")
	l.Error(context.Background(), "e")
	out := buf.String()
	if strings.Contains(out, "level=debug") || strings.Contains(out, "level=info") {
		t.Fatalf("below-threshold lines written: %q", out)
	}
	if !strings.Contains(out, "level=warn") || !strings.Contains(out, "level=error") {
		t.Fatalf("threshold lines missing: %q", out)
	}
	if l.Enabled(LogInfo) || !l.Enabled(LogError) {
		t.Fatal("Enabled disagrees with the threshold")
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info(context.Background(), "ignored", "k", "v") // must not panic
	if l.With("x") != nil {
		t.Fatal("nil.With should stay nil")
	}
	if l.Enabled(LogError) {
		t.Fatal("nil logger is never enabled")
	}
}

func TestLoggerNoTraceOmitsField(t *testing.T) {
	var buf syncBuf
	NewLogger(&buf, LogInfo).Info(context.Background(), "hello")
	if strings.Contains(buf.String(), "trace=") {
		t.Fatalf("uncorrelated line carries trace=: %q", buf.String())
	}
}

func TestParseLogLevel(t *testing.T) {
	for s, want := range map[string]LogLevel{
		"debug": LogDebug, "info": LogInfo, "warn": LogWarn,
		"warning": LogWarn, "error": LogError, " Error ": LogError,
	} {
		got := ParseLogLevel(s)
		if got != want {
			t.Errorf("ParseLogLevel(%q) = %v, want %v", s, got, want)
		}
	}
	if ParseLogLevel("loud") != LogInfo {
		t.Error("unknown level should default to info")
	}
	for _, l := range []LogLevel{LogDebug, LogInfo, LogWarn, LogError} {
		if ParseLogLevel(l.String()) != l {
			t.Errorf("String/Parse round-trip broken for %v", l)
		}
	}
}
