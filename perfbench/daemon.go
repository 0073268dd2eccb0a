package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one pbld child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // http://host:port
	cli    *client
	exited chan struct{}
}

var servingRE = regexp.MustCompile(`msg=serving addr=(http://\S+)`)

// startDaemon execs pbld with the deployed defaults (obs stack on)
// plus the benchmark's sizing: -workers nproc, -cache memEntries and a
// fresh persistent tier in cacheDir. It returns once the listener is
// bound, which pbld logs just before serving.
func startDaemon(pbld, cacheDir string, workers int) (*daemon, error) {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(pbld,
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers),
		"-cache", strconv.Itoa(memEntries),
		"-cache-dir", cacheDir)
	// Killed with the benchmark if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec pbld: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	logTail := &tailBuffer{max: 4096}
	go func() {
		// Drain stderr for the daemon's whole life so logging never
		// blocks it; the first serving line carries the address.
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			logTail.write(line)
			if !found {
				if m := servingRE.FindStringSubmatch(line); m != nil {
					found = true
					addrc <- m[1]
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.exited:
		return nil, fmt.Errorf("pbld exited before serving: %s", logTail.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("pbld did not report its address within 30s")
	}
	d.cli = newClient(d.addr, workers)
	return d, nil
}

// stop asks pbld to drain (SIGTERM) and waits for it to exit,
// escalating to SIGKILL after 20s.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	if d.cli != nil {
		d.cli.close()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// peakRSSMB reads the child's high-water resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metricValue scrapes one unlabelled family's value from /metrics.
func (d *daemon) metricValue(ctx context.Context, name string) (float64, error) {
	b, err := d.cli.get(ctx, "/metrics")
	if err != nil {
		return 0, err
	}
	return parseMetric(b, name)
}

// parseMetric finds `name value` in a Prometheus text exposition.
func parseMetric(exposition []byte, name string) (float64, error) {
	for _, line := range bytes.Split(exposition, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

// tailBuffer keeps the last max bytes of a log for error messages.
type tailBuffer struct {
	max int
	buf []byte
}

func (t *tailBuffer) write(line string) {
	t.buf = append(t.buf, line...)
	t.buf = append(t.buf, '\n')
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
}

func (t *tailBuffer) String() string { return string(t.buf) }

// setup is one cold start: exec pbld, then the first /v1/run {} —
// which pays the response-model calibration. It returns the running
// daemon, the elapsed time and whether the response was byte-equal to
// the golden file.
func setup(ctx context.Context, env *env, name string) (*daemon, time.Duration, bool, error) {
	t := time.Now()
	d, err := startDaemon(env.pbld, filepath.Join(env.work, name), env.workers)
	if err != nil {
		return nil, 0, false, err
	}
	r, err := d.cli.postRaw(ctx, "/v1/run", []byte("{}"))
	elapsed := time.Since(t)
	if err != nil {
		d.stop()
		return nil, 0, false, fmt.Errorf("first /v1/run: %w", err)
	}
	return d, elapsed, r.status == 200 && bytes.Equal(r.body, env.golden), nil
}
