package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and runs the short tests of benchmark/, the
// repository benchmark's own Go module. `go test ./...` in this module never
// compiles it, so without this test a change that removes or renames an
// identifier the benchmark uses would pass here and fail only when the
// benchmark is built. The environment is run.sh's: the replace directive
// resolves this checkout, and nothing is fetched.
func TestBenchmarkModule(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	for _, args := range [][]string{
		{"vet", "./..."},
		{"test", "-short", "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
