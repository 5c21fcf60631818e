// Package errcheck_ok is a golden case of the lint checks: every error is
// handled, explicitly discarded, or allowlisted. Expected findings: 0.
package errcheck_ok

import (
	"fmt"
	"os"
	"strings"
)

// WriteStamp handles the write error, closes with an explicit check, and
// keeps a visibly discarded backstop close for the error paths.
func WriteStamp(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	if _, err := f.WriteString("stamp"); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("stamped ") // strings.Builder never fails
	sb.WriteString(path)
	fmt.Println(sb.String()) // fmt printing is allowlisted
	return f.Close()
}
