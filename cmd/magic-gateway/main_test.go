package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitStatus: -h exits 0; a flag error or a missing or invalid
// -backends list is a usage error (2) that serves nothing; an address that
// cannot be bound exits 1. The gateway writes nothing to stdout.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-backends"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"no backends", []string{"-addr", "127.0.0.1:0"}, 2, "need -backends"},
		{"duplicate backend", []string{"-backends", "http://a:1,http://a:1"}, 2, `duplicate backend "http://a:1"`},
		{"empty backend", []string{"-backends", "http://a:1,"}, 2, "empty backend URL"},
		{"unbindable address", []string{"-addr", "127.0.0.1:-1", "-backends", "http://127.0.0.1:1"}, 1, "magic-gateway: listen tcp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want empty", stdout.String())
			}
		})
	}
}
