package chaos

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ServerConfig describes how to run one renamed process under the
// harness. Addresses are FIXED (the caller picks free ports once) so
// clients and the proxy survive restarts without re-resolving.
type ServerConfig struct {
	// Binary is the path to a built renamed binary.
	Binary string
	// DataDir is the -data-dir; crash scenarios restart against the same
	// one, which is the whole point.
	DataDir string
	// HTTPAddr and BinAddr are the fixed -addr / -listen-bin listen
	// addresses.
	HTTPAddr, BinAddr string
	// TTL is the server's default lease TTL.
	TTL time.Duration
	// Capacity bounds live leases; 0 uses the server default.
	Capacity int
	// Stdout, when set, receives a copy of the process output (both
	// streams), prefixed per line — the flight recorder for failed runs.
	Stdout io.Writer
}

// Server manages one renamed process: start (waiting for its serving
// banners), SIGKILL, graceful stop, restart. Safe for one controlling
// goroutine plus observers of Kills.
type Server struct {
	cfg ServerConfig

	mu      sync.Mutex
	cmd     *exec.Cmd
	waitErr chan error

	kills atomic.Int64
}

// StartServer launches the process and blocks until it is serving (all
// configured listeners announced) or it exits early.
func StartServer(cfg ServerConfig) (*Server, error) {
	s := &Server{cfg: cfg}
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// Kills counts the SIGKILLs delivered.
func (s *Server) Kills() int64 { return s.kills.Load() }

// Start launches (or relaunches) the process against the same data
// directory and waits until every configured listener has printed its
// serving banner.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd != nil {
		return fmt.Errorf("chaos: server already running")
	}
	// The journal syncs every record: a reply the client saw is then
	// durable by construction, so the checker may treat every
	// acknowledged token as surviving a kill.
	args := []string{
		"-addr", s.cfg.HTTPAddr,
		"-listen-bin", s.cfg.BinAddr,
		"-data-dir", s.cfg.DataDir,
		"-fsync", "always",
		"-ttl", s.cfg.TTL.String(),
		"-drain", "2s",
	}
	if s.cfg.Capacity > 0 {
		args = append(args, "-capacity", fmt.Sprint(s.cfg.Capacity))
	}
	cmd := exec.Command(s.cfg.Binary, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = cmd.Stdout // interleave; banner scanning reads both
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: start %s: %w", s.cfg.Binary, err)
	}

	// Scan output until both listener banners have appeared, then keep
	// draining (into cfg.Stdout when set) so the child never blocks on a
	// full pipe.
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 64<<10)
		seen := 0
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			if s.cfg.Stdout != nil {
				fmt.Fprintf(s.cfg.Stdout, "[renamed] %s\n", line)
			}
			if !signaled && strings.Contains(line, "renamed: serving") && strings.Contains(line, " on ") {
				if seen++; seen == 2 {
					signaled = true
					ready <- nil
				}
			}
		}
		if !signaled {
			ready <- fmt.Errorf("chaos: renamed exited before serving")
		}
	}()

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()

	select {
	case err := <-ready:
		if err != nil {
			<-waitErr
			return err
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-waitErr
		return fmt.Errorf("chaos: renamed did not start serving within 10s")
	}
	s.cmd = cmd
	s.waitErr = waitErr
	return nil
}

// Kill SIGKILLs the process — no drain, no snapshot, the crash the
// journal exists for — and reaps it.
func (s *Server) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd == nil {
		return
	}
	s.kills.Add(1)
	s.cmd.Process.Kill()
	<-s.waitErr
	s.cmd, s.waitErr = nil, nil
}

// Stop is the graceful shutdown: SIGTERM, wait for the drain and the
// final snapshot (bounded), escalating to SIGKILL if the process hangs.
// After a clean Stop the journal is empty and the snapshot is the whole
// durable state — the strongest post-run audit.
func (s *Server) Stop(timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.waitErr:
		s.cmd, s.waitErr = nil, nil
		if err != nil && !isSignalExit(err) {
			return err
		}
		return nil
	case <-time.After(timeout):
		s.cmd.Process.Kill()
		<-s.waitErr
		s.cmd, s.waitErr = nil, nil
		return fmt.Errorf("chaos: graceful stop timed out after %v; killed", timeout)
	}
}

// isSignalExit reports an exit caused by the signal we sent — renamed
// exits 0 on SIGTERM after a clean drain, but a kill during the drain
// window surfaces as a signal exit, which the caller already knows.
func isSignalExit(err error) bool {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok {
			return ws.Signaled()
		}
	}
	return false
}

// CrashSchedule shapes the kill/restart cadence.
type CrashSchedule struct {
	// MinUp/MaxUp bound how long the process lives between kills.
	MinUp, MaxUp time.Duration
	// MinDown/MaxDown bound how long it stays dead. Downtime must stay
	// well under the lease TTL or every lease legitimately expires.
	MinDown, MaxDown time.Duration
}

// CrashLoop kills and restarts the server on a seeded schedule until
// ctx is done, then guarantees the server is RUNNING before returning —
// teardown always meets a live process. onDown/onUp observe each
// transition at its instant on the checker's clock; the checker
// registers these as fault windows.
func (s *Server) CrashLoop(ctx context.Context, seed uint64, cs CrashSchedule, onDown, onUp func(t time.Time)) error {
	r := rng(seed, "crash")
	for {
		up := durBetween(r, cs.MinUp, cs.MaxUp)
		select {
		case <-ctx.Done():
			return s.ensureUp()
		case <-time.After(up):
		}
		s.Kill()
		onDown(clock())
		down := durBetween(r, cs.MinDown, cs.MaxDown)
		// The down sleep is NOT cancellable: a kill already happened, so
		// the restart must too.
		time.Sleep(down)
		if err := s.restartWithRetry(); err != nil {
			return err
		}
		onUp(clock())
	}
}

// ensureUp restarts the server if a cancellation raced the kill window.
func (s *Server) ensureUp() error {
	s.mu.Lock()
	running := s.cmd != nil
	s.mu.Unlock()
	if running {
		return nil
	}
	return s.restartWithRetry()
}

// restartWithRetry absorbs transient bind races (the dead process's
// listener may take a beat to fully release on a loaded machine).
func (s *Server) restartWithRetry() error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = s.Start(); err == nil {
			return nil
		}
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
	return fmt.Errorf("chaos: restart failed after retries: %w", err)
}
