// Package leakcheck finds goroutines a test left running in the serving
// stack. A test calls Start before it starts the code under test and the
// returned check after it has shut that code down:
//
//	check := leakcheck.Start(t)
//	... start servers, run jobs, close everything ...
//	check()
//
// The check fails the test with the stack of every goroutine started since
// Start that still has a frame in repro/internal/service, gateway or core
// (including the frame that created it). Goroutines alive at Start — other
// tests' leftovers, the test runner — are never reported.
package leakcheck

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// watched are the function-name prefixes of the packages whose goroutines
// must not outlive their owner's shutdown.
var watched = []string{
	"repro/internal/service.",
	"repro/internal/gateway.",
	"repro/internal/core.",
}

// settle is how long the check waits for goroutines that are already on
// their way out.
const settle = 2 * time.Second

// Start records the live watched goroutines and returns the check.
func Start(t testing.TB) (check func()) {
	before := live()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settle)
		for {
			var leaked []string
			for id, stack := range live() {
				if _, old := before[id]; !old {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				sort.Strings(leaked)
				t.Errorf("%d goroutine(s) still running after shutdown:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// live returns the stack of every goroutine with a watched frame, keyed by
// goroutine ID.
func live() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, stack := range strings.Split(string(buf), "\n\n") {
		// Each stack starts "goroutine <id> [<state>]:".
		fields := strings.Fields(stack)
		if len(fields) < 2 || !hasWatchedFrame(stack) {
			continue
		}
		out[fields[1]] = stack
	}
	return out
}

func hasWatchedFrame(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		fn := strings.TrimPrefix(line, "created by ")
		for _, p := range watched {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}
