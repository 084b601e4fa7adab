package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	startTimeout = 60 * time.Second
	stopTimeout  = 15 * time.Second
	// clockTick is the unit of the CPU times in /proc/<pid>/stat
	// (USER_HZ, 100 on every Linux this runs on).
	clockTick = 10 * time.Millisecond
)

// server is one locwatchd child process: the process under test of
// the stream workloads.
type server struct {
	cmd    *exec.Cmd
	base   string
	diag   *http.Client // health, metrics and profiles; never the load
	exited chan struct{}
	err    error // cmd.Wait's result, readable once exited is closed
}

// startServer spawns bin with args on a free loopback port and returns
// once GET /healthz answers 200, with the time from spawn to then.
func startServer(ctx context.Context, bin string, args []string, log io.Writer) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:    cmd,
		base:   "http://" + addr,
		diag:   &http.Client{Timeout: requestTimeout},
		exited: make(chan struct{}),
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting locwatchd: %w", err)
	}
	go func() {
		err := cmd.Wait()
		//lint:ignore locksafe written once before exited is closed; every reader waits on exited first
		s.err = err
		close(s.exited)
	}()
	for {
		if _, err := s.get(ctx, "/healthz"); err == nil {
			return s, time.Since(t0), nil
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("locwatchd exited before serving: %v", s.err)
		case <-ctx.Done():
			return nil, 0, errors.Join(ctx.Err(), s.kill())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > startTimeout {
			return nil, 0, errors.Join(fmt.Errorf("locwatchd not healthy after %v", startTimeout), s.kill())
		}
	}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// stop sends SIGTERM, which makes locwatchd drain and exit 0, and waits
// for the process; it kills it if the drain overruns stopTimeout.
func (s *server) stop() error {
	s.diag.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return errors.Join(err, s.kill())
	}
	select {
	case <-s.exited:
		if s.err != nil {
			return fmt.Errorf("locwatchd drain: %w", s.err)
		}
		return nil
	case <-time.After(stopTimeout):
		return errors.Join(fmt.Errorf("locwatchd did not drain within %v", stopTimeout), s.kill())
	}
}

func (s *server) kill() error {
	err := s.cmd.Process.Kill()
	<-s.exited
	if errors.Is(err, os.ErrProcessDone) {
		return nil
	}
	return err
}

// cpuTime is the server's user plus system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it do not.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat line")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// peakRSS is the server's peak resident set (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	return statusKB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid), "VmHWM:")
}

// statusKB reads one "<key> <n> kB" line of a /proc status file, in
// bytes.
func statusKB(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == key {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// varsDoc is the registry snapshot /debug/vars serves and
// obs.Registry.WriteJSON writes.
type varsDoc struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	c := s.diag
	if strings.HasPrefix(path, "/debug/pprof/profile") {
		c = &http.Client{} // the profile takes as long as it was asked to
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	//lint:ignore ctxflow closing a response body that was read to the end (or failed) does not wait on the network
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

func (s *server) vars(ctx context.Context) (varsDoc, error) {
	var v varsDoc
	data, err := s.get(ctx, "/debug/vars")
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

// totalAlloc is the server's cumulative heap allocation in bytes, from
// the runtime.MemStats block of the debug heap profile.
func (s *server) totalAlloc(ctx context.Context) (uint64, error) {
	data, err := s.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("heap profile has no TotalAlloc line")
}
