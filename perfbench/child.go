package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"
)

// proc is one finished child process run.
type proc struct {
	wall   float64 // seconds, start to exit
	rssMB  float64 // max resident set size from rusage
	stderr string  // tail, for error messages
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runCLI runs bin with args to exit. consume, when non-nil, reads the
// child's stdout as it is written (its timestamps are measured against
// the returned start time); otherwise stdout is discarded.
func runCLI(ctx context.Context, bin string, args []string, consume func(start time.Time, r io.Reader) error) (proc, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	tail := &tailBuffer{max: 4096}
	cmd.Stderr = tail
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return proc{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return proc{}, err
	}
	var cerr error
	if consume != nil {
		cerr = consume(start, stdout)
	}
	// Drain whatever the consumer left so the child never blocks on a
	// full pipe, then reap it.
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	p := proc{wall: since(start), stderr: string(tail.b)}
	if cmd.ProcessState != nil {
		p.rssMB = maxRSSMB(cmd.ProcessState)
	}
	if werr != nil {
		return p, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), werr, p.stderr)
	}
	return p, cerr
}

// server is a running casa-serve child.
type server struct {
	cmd     *exec.Cmd
	addr    string
	setup   float64 // seconds from process start to the first /healthz 200
	waitErr chan error

	// tail keeps the end of the server's stderr. The goroutine draining
	// stderr writes it and closes tailDone when it returns; readers wait
	// for waitErr, which is sent only after that.
	tail     tailBuffer
	tailDone chan struct{}
}

var listenRE = regexp.MustCompile(`seeding server listening.*addr=(\S+)`)

// startServer starts casa-serve, waits until /healthz answers 200 and
// records how long that took. The caller must stop the server.
func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, waitErr: make(chan error, 1), tail: tailBuffer{max: 4096}, tailDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// The server logs one access record per request; drain them all
		// so it never blocks on stderr, keeping a tail for errors.
		defer close(s.tailDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Bytes()
			if !sent {
				if m := listenRE.FindSubmatch(line); m != nil {
					addrc <- string(m[1])
					sent = true
				}
			}
			s.tail.Write(append(line, '\n'))
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-s.tailDone
		s.waitErr <- cmd.Wait()
	}()
	fail := func(err error) (*server, error) {
		_ = cmd.Process.Kill()
		<-s.waitErr
		return nil, fmt.Errorf("casa-serve: %v\n%s", err, s.tail.b)
	}
	select {
	case s.addr = <-addrc:
	case err := <-s.waitErr:
		s.waitErr <- err
		return fail(fmt.Errorf("exited before listening: %v", err))
	case <-time.After(60 * time.Second):
		return fail(errors.New("no listening address within 60s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if since(start) > 60 {
			return fail(errors.New("/healthz not ready within 60s"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = since(start)
	return s, nil
}

// stop drains the server with SIGTERM and returns its peak RSS.
// casa-serve answers /healthz before it installs its SIGTERM handler, so
// a server stopped right after start-up can die of the signal instead of
// draining. A server that only timed set-up (served false) was idle and
// had nothing to drain: its death by SIGTERM is reported in sigtermed,
// not as an error. A server that served traffic installed its handler
// long before, so the same death there is an error.
func (s *server) stop(served bool) (rssMB float64, sigtermed bool, err error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, false, err
	}
	select {
	case err = <-s.waitErr:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-s.waitErr
		if err == nil {
			err = errors.New("casa-serve did not drain within 60s")
		}
	}
	if ps := s.cmd.ProcessState; ps != nil {
		rssMB = maxRSSMB(ps)
		if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM && !served {
			sigtermed, err = true, nil
		}
	}
	if err != nil {
		return rssMB, false, fmt.Errorf("casa-serve exit: %v\n%s", err, bytes.TrimSpace(s.tail.b))
	}
	return rssMB, sigtermed, nil
}
