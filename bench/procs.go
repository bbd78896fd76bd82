package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running cactid-serve child.
type proc struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan struct{} // closed once Wait has returned
}

// fleet owns every child process a run starts, so one kill path stops
// them all: on return, on error and on SIGINT.
type fleet struct {
	bin  string
	work string

	mu    sync.Mutex
	procs []*proc
	n     int
}

func newFleet(bin, work string) *fleet { return &fleet{bin: bin, work: work} }

// freePort asks the kernel for an unused loopback port. cactid-serve
// only takes a fixed -addr, so the port is released before the child
// binds it; startReady retries if another process takes it first.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn execs cactid-serve on port with the given GOMAXPROCS and
// flags. The child gets its own process group, so a terminal's SIGINT
// reaches only the harness, and dies with the harness's thread if the
// harness is killed outright.
func (f *fleet) spawn(port, gomaxprocs int, args ...string) (*proc, error) {
	f.mu.Lock()
	f.n++
	logPath := filepath.Join(f.work, fmt.Sprintf("serve-%d.log", f.n))
	f.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(f.bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cactid-serve: %w", err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	fmt.Fprintf(os.Stderr, "bench: started cactid-serve pid=%d %s\n", cmd.Process.Pid, addr)
	return p, nil
}

// kill SIGKILLs the child and waits until it has exited.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

func (f *fleet) killAll() {
	f.mu.Lock()
	ps := f.procs
	f.procs = nil
	f.mu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// forget kills p and drops it from the fleet.
func (f *fleet) forget(p *proc) {
	p.kill()
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, q := range f.procs {
		if q == p {
			f.procs = append(f.procs[:i], f.procs[i+1:]...)
			break
		}
	}
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 512 {
		b = b[len(b)-512:]
	}
	return strings.TrimSpace(string(b))
}

// errExited marks a child that died before it became ready, usually
// because another process took its port.
var errExited = errors.New("cactid-serve exited before it was ready")

// waitReady polls GET path until it answers 200 and ok accepts the
// body, the child exits, or ctx ends.
func waitReady(ctx context.Context, c *http.Client, p *proc, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%w: %s", errExited, p.logTail())
		default:
		}
		if body, status, err := get(ctx, c, p.url+path); err == nil && status == http.StatusOK && (ok == nil || ok(body)) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cactid-serve at %s not ready after 30s: %s", p.url, p.logTail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// startReady spawns one server and waits for /healthz, retrying on a
// lost port race. It returns the exec-to-ready time.
func (f *fleet) startReady(ctx context.Context, c *http.Client, gomaxprocs int, args ...string) (*proc, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		p, err := f.spawn(port, gomaxprocs, args...)
		if err != nil {
			return nil, 0, err
		}
		err = waitReady(ctx, c, p, "/healthz", nil)
		if err == nil {
			return p, time.Since(t0), nil
		}
		f.forget(p)
		if !errors.Is(err, errExited) || attempt == 2 {
			return nil, 0, err
		}
	}
}

// vmHWM returns a process's peak resident set size in bytes.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds returns the user+system CPU time a process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// copyDir copies a flat store directory (segments and index).
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
