package dist_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cubetree"
	"cubetree/internal/dist"
	"cubetree/internal/server"
)

// TestClusterDaemonWorkerLoss is the process-level integration: build the
// real cubetreed binary, boot two -worker processes and one -shards
// coordinator, storm the coordinator with queries over HTTP, SIGTERM one
// worker mid-storm, and assert that every response is either a good 200 or
// a structured error envelope (503 shard_unavailable with a retry hint) —
// never a bare 500, never torn JSON — and that the coordinator itself
// drains cleanly afterwards.
func TestClusterDaemonWorkerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon; skipped in -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM semantics are POSIX-only")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}

	dir := t.TempDir()
	shardDirs := []string{filepath.Join(dir, "shard0"), filepath.Join(dir, "shard1")}
	whs := loadShards(t, dist.Facts(factAttrs, synthFacts(400, 11, testDomains)), 2, clusterViews(), func(i int) cubetree.Config {
		return cubetree.Config{Dir: shardDirs[i], Domains: testDomains}
	})
	for _, wh := range whs {
		if err := wh.Close(); err != nil {
			t.Fatal(err)
		}
	}

	bin := filepath.Join(dir, "cubetreed")
	build := exec.Command("go", "build", "-race", "-o", bin, "cubetree/cmd/cubetreed")
	if out, err := build.CombinedOutput(); err != nil {
		t.Logf("race build unavailable (%v), building without -race:\n%s", err, out)
		build = exec.Command("go", "build", "-o", bin, "cubetree/cmd/cubetreed")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build cubetreed: %v\n%s", err, out)
		}
	}

	type proc struct {
		cmd  *exec.Cmd
		tail func() string
	}
	var procs []proc
	start := func(needle string, args ...string) (string, *exec.Cmd) {
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addr, tail := scrapeAddr(t, stderr, needle)
		procs = append(procs, proc{cmd, tail})
		return addr, cmd
	}
	defer func() {
		for _, p := range procs {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	}()

	w0, _ := start("worker serving", "-worker", "-dir", shardDirs[0], "-addr", "127.0.0.1:0")
	w1, worker1 := start("worker serving", "-worker", "-dir", shardDirs[1], "-addr", "127.0.0.1:0")
	// -cache=-1: the storm repeats three statements, and a warm result cache
	// would keep answering them after the worker dies without ever
	// scattering; the point here is to hit the degraded shard.
	coordAddr, coordinator := start("coordinator serving",
		"-shards", w0+","+w1, "-addr", "127.0.0.1:0", "-drain-grace", "20s", "-cache", "-1")
	base := "http://" + coordAddr

	client := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := client.Get(base + "/readyz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never became ready:\n%s", procs[2].tail())
		}
		time.Sleep(10 * time.Millisecond)
	}

	type outcome struct {
		status int
		err    error
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes []outcome
		stop     atomic.Bool
	)
	sqls := []string{
		"SELECT sum(quantity), count(*) FROM facts",
		"SELECT partkey, sum(quantity) FROM facts GROUP BY partkey",
		"SELECT custkey, count(*) FROM facts WHERE custkey = 3 GROUP BY custkey",
	}
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				res, err := client.Post(base+"/query", "text/plain",
					strings.NewReader(sqls[(i+c)%len(sqls)]))
				if err != nil {
					mu.Lock()
					outcomes = append(outcomes, outcome{err: err})
					mu.Unlock()
					time.Sleep(5 * time.Millisecond)
					continue
				}
				body, rerr := io.ReadAll(res.Body)
				res.Body.Close()
				o := outcome{status: res.StatusCode}
				if rerr != nil {
					o.err = fmt.Errorf("truncated response: %w", rerr)
				} else if res.StatusCode == http.StatusOK {
					var resp server.QueryResponse
					if jerr := json.Unmarshal(body, &resp); jerr != nil || len(resp.Results) != 1 {
						o.err = fmt.Errorf("torn 200 body: %v %q", jerr, body)
					}
				} else {
					var envelope server.ErrorResponse
					if jerr := json.Unmarshal(body, &envelope); jerr != nil || envelope.Error.Code == "" {
						o.err = fmt.Errorf("unstructured %d body: %q", res.StatusCode, body)
					} else if res.StatusCode == http.StatusServiceUnavailable &&
						envelope.Error.Code == server.CodeShardDown && envelope.Error.RetryAfterMS <= 0 {
						o.err = fmt.Errorf("shard_unavailable without retry hint: %q", body)
					}
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}(c)
	}

	// Establish traffic, then kill one worker mid-storm and keep storming
	// against the degraded cluster.
	time.Sleep(400 * time.Millisecond)
	if err := worker1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := worker1.Wait(); err != nil {
		t.Errorf("worker exited non-zero after SIGTERM: %v\n%s", err, procs[1].tail())
	}
	time.Sleep(600 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	var ok200, shed503, other4xx int
	for _, o := range outcomes {
		switch {
		case o.err != nil && o.status == 0:
			t.Fatalf("transport error against live coordinator: %v", o.err)
		case o.err != nil:
			t.Fatalf("bad response: status %d: %v", o.status, o.err)
		case o.status == http.StatusOK:
			ok200++
		case o.status == http.StatusServiceUnavailable:
			shed503++
		case o.status == http.StatusInternalServerError:
			t.Fatalf("coordinator answered a bare 500 after worker loss")
		case o.status >= 400 && o.status < 500:
			other4xx++
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	t.Logf("storm outcomes: %d ok, %d structured 503, %d 4xx", ok200, shed503, other4xx)
	if ok200 == 0 {
		t.Fatal("storm completed no queries; the test exercised nothing")
	}
	if shed503 == 0 {
		t.Fatal("no structured shard_unavailable errors after killing a worker")
	}

	// The coordinator itself must still drain cleanly.
	if err := coordinator.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- coordinator.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("coordinator exited non-zero after SIGTERM: %v\n%s", err, procs[2].tail())
		}
	case <-time.After(30 * time.Second):
		t.Error("coordinator did not exit within 30s of SIGTERM")
	}
}

// scrapeAddr reads a daemon's stderr until a line containing needle, and
// returns the host:port after its " on " marker (stripping any http://
// scheme) plus a closure yielding the log seen so far.
func scrapeAddr(t *testing.T, stderr io.Reader, needle string) (string, func() string) {
	t.Helper()
	var (
		mu    sync.Mutex
		lines []string
	)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
			if i := strings.Index(line, " on "); i >= 0 && strings.Contains(line, needle) {
				addr := strings.TrimPrefix(line[i+len(" on "):], "http://")
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	tail := func() string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(lines, "\n")
	}
	select {
	case addr := <-addrCh:
		return addr, tail
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never logged %q:\n%s", needle, tail())
		return "", tail
	}
}
