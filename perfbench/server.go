package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one analysisd child process listening on loopback.
type server struct {
	cmd       *exec.Cmd
	addr      string // API address, host:port
	debugAddr string // debug server address (serves /metrics)
	exited    chan error
}

const (
	listenLine = "analysisd listening on "
	debugLine  = "analysisd debug server on "
)

// startServer execs analysisd on free loopback ports and returns once it
// has printed its listen line, which it does after both listeners are
// bound.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	ready := make(chan error, 2) // the listen line, then end of output
	go func() {
		// Drain stdout to EOF so the child never blocks on a full pipe,
		// then reap it.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, debugLine):
				s.debugAddr = strings.TrimPrefix(line, debugLine)
			case strings.HasPrefix(line, listenLine):
				s.addr = strings.TrimPrefix(line, listenLine)
				ready <- nil
			}
		}
		ready <- fmt.Errorf("analysisd exited before listening")
		s.exited <- cmd.Wait()
	}()
	select {
	case err := <-ready:
		if err != nil {
			<-s.exited
			return nil, err
		}
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("analysisd did not listen within 30s")
	}
	return s, nil
}

// stop sends SIGTERM, which drains the server, and waits for it to exit;
// a server that has not exited after 10s is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.exited:
		// A SIGTERM that lands before analysisd installs its handler ends
		// the process by the default action, which is as good a stop.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		s.kill()
		return fmt.Errorf("analysisd did not drain within 10s")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // the process may already have exited
	<-s.exited
}

// peakRSSMB reads the child's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// counters scrapes the server's obs counters from the debug server.
func (s *server) counters() (map[string]int64, error) {
	resp, err := http.Get("http://" + s.debugAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap.Counters, nil
}
