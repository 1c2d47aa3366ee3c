package main

// daemon.go: process hygiene for the cubetreed children. The binary is built
// once (or handed in with -cubetreed), every child listens on a free
// loopback port, readiness is polled with a deadline, and whatever happens
// — normal exit, failed run, SIGINT/SIGTERM — the children are killed and
// waited for and the run's temp dir is removed.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

const readyDeadline = 20 * time.Second

// runDir is one benchmark process's scratch space and child registry.
type runDir struct {
	path      string
	cubetreed string // path of the daemon binary; built on first use when empty

	mu       sync.Mutex
	children []*daemon
}

func newRunDir(cubetreed string) (*runDir, error) {
	path, err := os.MkdirTemp("", "ctbench-")
	if err != nil {
		return nil, err
	}
	rd := &runDir{path: path, cubetreed: cubetreed}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: stopping children and cleaning up\n", s)
		rd.cleanup()
		os.Exit(130)
	}()
	return rd, nil
}

// cleanup kills every child still running and removes the temp dir.
func (rd *runDir) cleanup() {
	rd.mu.Lock()
	children := rd.children
	rd.children = nil
	rd.mu.Unlock()
	for _, d := range children {
		d.stop()
	}
	os.RemoveAll(rd.path)
}

// binary returns the cubetreed binary, building it into the run dir the
// first time when none was supplied. The build is never part of setup_s.
func (rd *runDir) binary() (string, error) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if rd.cubetreed != "" {
		return rd.cubetreed, nil
	}
	start := time.Now()
	out := filepath.Join(rd.path, "cubetreed")
	cmd := exec.Command("go", "build", "-o", out, "cubetree/cmd/cubetreed")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build cubetreed: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: built cubetreed in %.1fs (not part of setup_s)\n", time.Since(start).Seconds())
	rd.cubetreed = out
	return out, nil
}

// daemon is one running cubetreed child.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once the process has been waited for

	stopping sync.Once
}

// spawn starts cubetreed with args, logging to <name>.log in the run dir.
func (rd *runDir) spawn(name, addr string, args ...string) (*daemon, error) {
	bin, err := rd.binary()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(rd.path, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	rd.mu.Lock()
	rd.children = append(rd.children, d)
	rd.mu.Unlock()
	return d, nil
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace period)
// and returns once it has been waited for.
func (d *daemon) stop() {
	d.stopping.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	})
}

// freeAddr picks a loopback address nobody listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitUntil polls probe until it succeeds, the daemon dies, or the
// readiness deadline passes.
func (d *daemon) waitUntil(what string, probe func() bool) error {
	deadline := time.Now().Add(readyDeadline)
	for {
		if probe() {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("cubetreed on %s exited before %s", d.addr, what)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cubetreed on %s: no %s within %v", d.addr, what, readyDeadline)
		}
	}
}

// waitReady polls GET /readyz on an HTTP front door.
func (d *daemon) waitReady(client *http.Client) error {
	return d.waitUntil("/readyz", func() bool {
		resp, err := client.Get("http://" + d.addr + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// waitListening polls a worker's wire-protocol port.
func (d *daemon) waitListening() error {
	return d.waitUntil("listener", func() bool {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
}

// cancelOnDeath returns a context that ends when any of the daemons exits,
// so requests against a dead daemon fail at once instead of hanging the run.
func cancelOnDeath(ds []*daemon) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	for _, d := range ds {
		go func(d *daemon) {
			select {
			case <-d.done:
				cancel()
			case <-ctx.Done():
			}
		}(d)
	}
	return ctx, cancel
}
