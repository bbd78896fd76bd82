package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMainBindsFirst runs main in a child process (this test binary,
// re-executed) on an address another listener holds. The child must
// exit 1 without logging "listening" and without creating its -store
// directory: a server that cannot have its address opens no store and
// revives no sweep jobs.
func TestMainBindsFirst(t *testing.T) {
	if args := os.Getenv("CACTID_SERVE_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"cactid-serve"}, strings.Split(args, "\n")...)
		main()
		return
	}
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	storeDir := filepath.Join(t.TempDir(), "store")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMainBindsFirst$")
	cmd.Env = append(os.Environ(), "CACTID_SERVE_MAIN_ARGS="+strings.Join(
		[]string{"-addr", held.Addr().String(), "-store", storeDir}, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("main on a held address: %v, want exit status 1; output:\n%s", err, out)
	}
	if strings.Contains(string(out), "listening") {
		t.Errorf("main logged listening on a held address:\n%s", out)
	}
	if _, err := os.Stat(storeDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("main on a held address created its store directory (stat: %v)", err)
	}
}
