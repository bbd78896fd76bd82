package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// serveBin is cactid-serve built once for the tests that start it.
var serveBin string

// TestMain builds cactid-serve, and doubles as the harness's main when
// BENCH_AS_MAIN is set, so a test can signal a real harness process.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "cactid-bench-test-")
	if err != nil {
		panic(err)
	}
	serveBin = filepath.Join(dir, "cactid-serve")
	out, err := exec.Command("go", "build", "-o", serveBin, "cactid/cmd/cactid-serve").CombinedOutput()
	code := 1
	if err != nil {
		os.Stderr.Write(out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmokeAllWorkloads runs every workload for a fraction of a second,
// traced, with small working sets, and checks that each metric the
// ledger names is measured and that no request failed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	l, err := readLedger("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := options{seed: 3, seconds: 300 * time.Millisecond, trace: true, serve: serveBin,
		work: dir, out: dir, minTail: 0}
	for _, w := range workloads() {
		switch w.name {
		case "repeat-hot":
			w.wsGrids = 4
		case "store-churn":
			// 1024 specs, still 8x the tier-0 bound.
			w.wsGrids, w.cacheEntries = 16, 128
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), o, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("run not correct: %d of %d failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, m := range append(append([]ledgerMetric(nil), l.EndToEnd...), l.PerLayer...) {
				if _, ok := res.Values[m.Name]; !ok {
					t.Errorf("ledger metric %s not measured", m.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, w.name+".trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

var startedRe = regexp.MustCompile(`started cactid-serve pid=(\d+)`)

// TestInterruptKillsServers sends SIGINT to a harness mid-run and
// checks that it exits and that every cactid-serve it started is gone.
func TestInterruptKillsServers(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-workload", "dse-cold", "-seconds", "60", "-serve", serveBin,
		"-work", dir, "-out", dir, "-ledger", "../BENCHMARK.json")
	cmd.Env = append(os.Environ(), "BENCH_AS_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var pids []int
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := startedRe.FindStringSubmatch(sc.Text()); m != nil {
			pid, _ := strconv.Atoi(m[1])
			pids = append(pids, pid)
			if len(pids) == setupStarts/2 {
				break // the timed phase's server is up
			}
		}
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, stderr)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Errorf("harness exit = %v, want status 130", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("harness did not exit within 30s of SIGINT")
	}
	if len(pids) != setupStarts/2 {
		t.Fatalf("saw %d server starts before the signal, want %d", len(pids), setupStarts/2)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("cactid-serve pid %d still exists after the harness exited (%v)", pid, err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("work directory not cleaned up: %d entries left", len(ents))
	}
}
