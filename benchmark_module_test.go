package repro

import (
	"os"
	"os/exec"
	"testing"
)

// runGo runs the go tool in dir and fails the test with its output if it
// fails. The environment is benchmark/run.sh's: the benchmark module's
// replace directive resolves this checkout, and nothing is fetched.
func runGo(t *testing.T, dir string, args ...string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command(goBin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %v in %s: %v\n%s", args, dir, err, out)
	}
}

// TestBenchmarkModule vets and runs the short tests of benchmark/, the
// repository benchmark's own Go module. `go test ./...` in this module never
// compiles it, so without this test a change that removes or renames an
// identifier the benchmark uses would pass here and fail only when the
// benchmark is built.
func TestBenchmarkModule(t *testing.T) {
	runGo(t, "benchmark", "vet", "./...")
	runGo(t, "benchmark", "test", "-short", "./...")
}

// TestVet runs `go vet ./...` on this module, so vet's checks gate
// `go test ./...` too. Among them, copylocks catches a struct that holds a
// mutex or an atomic (a model replica, the parallel engine) being copied
// by value.
func TestVet(t *testing.T) {
	runGo(t, ".", "vet", "./...")
}
