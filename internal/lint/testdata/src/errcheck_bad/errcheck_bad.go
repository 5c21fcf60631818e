// Package errcheck_bad is a golden case of the lint checks for the errcheck
// rule. Expected findings: 2.
package errcheck_bad

import "os"

// WriteStamp drops both the WriteString error and the deferred Close
// error on the floor.
func WriteStamp(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()        // deferred discard
	f.WriteString("stamp") // statement discard
}
