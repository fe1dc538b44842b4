package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one pgserved process, started with its default flags and an
// ephemeral loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after exited is closed
	gcs    atomic.Int64  // "gc N @..." lines on stderr (gctrace runs only)

	mu      sync.Mutex
	errTail []string // last stderr lines, for failure messages
}

// lineWriter splits a child's output stream into lines for fn. exec copies
// the stream from one goroutine, so fn runs sequentially.
type lineWriter struct {
	buf []byte
	fn  func(string)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.fn(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
}

const (
	startTimeout = 10 * time.Second
	stopTimeout  = 10 * time.Second
)

// startServer launches pgserved and waits until /healthz answers 200. It
// returns the time from launch to that first 200 (the serve set-up time).
// With gctrace the Go runtime's GC trace is enabled and its lines counted.
// The process's stop is registered with onExit as soon as it has started.
func startServer(bin string, gctrace bool, onExit func(func())) (*server, time.Duration, error) {
	s := &server{exited: make(chan struct{})}
	addr := make(chan string, 1) // the one handshake line
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	// If this process dies without stopping it (SIGKILL), so does pgserved.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = &lineWriter{fn: func(line string) {
		if a, ok := strings.CutPrefix(line, "pgserved: listening on "); ok {
			select {
			case addr <- a:
			default:
			}
		}
	}}
	s.cmd.Stderr = &lineWriter{fn: func(line string) {
		if strings.HasPrefix(line, "gc ") {
			s.gcs.Add(1)
			return
		}
		s.mu.Lock()
		s.errTail = append(s.errTail, line)
		if len(s.errTail) > 5 {
			s.errTail = s.errTail[1:]
		}
		s.mu.Unlock()
	}}
	if gctrace {
		s.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start pgserved: %w", err)
	}
	onExit(s.stop)
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	timeout := time.NewTimer(startTimeout)
	defer timeout.Stop()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, 0, fmt.Errorf("pgserved exited during start-up: %s", s.exitReason())
	case <-timeout.C:
		s.stop()
		return nil, 0, errors.New("pgserved printed no listening address")
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("pgserved exited during start-up: %s", s.exitReason())
		case <-timeout.C:
			s.stop()
			return nil, 0, errors.New("pgserved /healthz never answered 200")
		case <-time.After(time.Millisecond):
		}
	}
}

// dead reports whether the process has exited.
func (s *server) dead() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

// exitReason describes how the process ended, with its last stderr lines.
func (s *server) exitReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("%v; stderr: %q", s.err, strings.Join(s.errTail, " | "))
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within stopTimeout, and returns once it has been reaped.
func (s *server) stop() {
	if s.dead() {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // exit is awaited below
	select {
	case <-s.exited:
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill() // already exiting is fine
		<-s.exited
	}
}

// cpu returns the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15, in USER_HZ (100/s) ticks.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB reads the VmHWM (peak resident set) line of a /proc status file.
func peakRSSMB(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}

// selfPeakRSSMB is this process's peak resident set (0 if unreadable).
func selfPeakRSSMB() float64 {
	mb, _ := peakRSSMB("/proc/self/status")
	return mb
}
