package main

import (
	"strings"
	"testing"
)

// TestRunArgumentErrors covers the argument errors run returns before it
// opens a listener, a state directory or a goroutine.
func TestRunArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no corpus source", nil, "need -families or -demo"},
		{"unknown backend", []string{"-demo", "-conv", "nope"}, "core: unknown conv backend"},
		// The float32 serving tier is gone; its flag must fail loudly, not
		// be accepted and ignored.
		{"removed flag", []string{"-demo", "-float32"}, "flag provided but not defined"},
		{"one family", []string{"-families", "a"}, "core: need at least 2 classes, got 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
