package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is the harness's footprint on the machine: the checkout it runs
// in, a scratch directory under <checkout>/.bench_build, and the child
// processes it has started. close undoes all of it, on a normal exit and
// on SIGINT/SIGTERM alike.
type env struct {
	root string // checkout root: the directory holding BENCHMARK.json
	bin  string // <root>/.bench_build/bin — simqd and datagen built from source
	work string // <root>/.bench_build/run-<pid> — datasets, WALs; removed on close

	wals atomic.Int64 // WAL files handed out, for unique names

	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json, so the harness runs from the checkout root (the
// driver) and from bench/ (go run .) alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:  root,
		bin:   filepath.Join(build, "bin"),
		work:  filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		procs: map[*exec.Cmd]struct{}{},
	}
	for _, dir := range []string{e.bin, e.work} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	return e, nil
}

// newWAL names a log file no earlier server or store of this process
// has written: a log left behind would be replayed into the next one.
func (e *env) newWAL() string {
	return filepath.Join(e.work, fmt.Sprintf("wal-%d.log", e.wals.Add(1)))
}

// buildBinaries compiles cmd/simqd and cmd/datagen from the checkout.
// The go command's own cache makes a repeat build a fraction of a second.
func (e *env) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(os.PathSeparator), "./cmd/simqd", "./cmd/datagen")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/simqd ./cmd/datagen: %v\n%s", err, out)
	}
	return nil
}

// close kills every child still running, waits for it, and removes the
// scratch directory.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = map[*exec.Cmd]struct{}{}
	e.mu.Unlock()
	for cmd := range procs {
		cmd.Process.Kill()
		cmd.Wait()
	}
	os.RemoveAll(e.work)
}

// server is one running simqd.
type server struct {
	env     *env
	cmd     *exec.Cmd
	args    []string // the flags after -addr, for a restart on the same state
	base    string   // http://127.0.0.1:port
	started time.Time
	stderr  bytes.Buffer
}

// freePort asks the kernel for an unused TCP port on loopback.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches simqd on a free port with its default flags plus
// args, and returns once /healthz answers. The server's stderr is kept
// for the failure report.
func (e *env) startServer(client *http.Client, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{env: e, args: args, base: "http://" + addr}
	s.cmd = exec.Command(filepath.Join(e.bin, "simqd"), append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.procs[s.cmd] = struct{}{}
	e.mu.Unlock()

	deadline := s.started.Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("simqd not healthy after 30s: %v\nserver stderr:\n%s", err, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill stops the server with SIGKILL and waits for it: the harness never
// needs a graceful drain, and the durability check wants exactly this.
func (s *server) kill() {
	s.env.mu.Lock()
	_, live := s.env.procs[s.cmd]
	delete(s.env.procs, s.cmd)
	s.env.mu.Unlock()
	if live {
		s.cmd.Process.Kill()
		s.cmd.Wait()
	}
}
