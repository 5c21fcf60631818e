package tensor

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestCPUHasAVX2MatchesCPUInfo holds the kernel choice to the kernel's own
// view of the CPU: Linux lists avx2 in /proc/cpuinfo's flags only where
// the CPU has it and the OS saves YMM state. A detection that wrongly says
// "no" would pass every bit test and run the Go loops everywhere.
func TestCPUHasAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx2")
		if got := HasAVX2(); got != want {
			t.Fatalf("HasAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
