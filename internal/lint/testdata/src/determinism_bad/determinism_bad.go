// Package determinism_bad is a golden case of the lint checks: every
// statement in Sum violates the determinism rule (testdata packages count
// as restricted scope).
package determinism_bad

import (
	"math/rand"
	"time"
)

// Sum accumulates map values in iteration order and mixes in global
// entropy and the wall clock. Expected findings: 4.
func Sum(m map[string]float64) float64 {
	total := float64(rand.Intn(10)) // global random source
	start := time.Now()             // wall clock in numeric code
	for _, v := range m {           // unordered map iteration
		total += v
	}
	total += time.Since(start).Seconds() // wall clock in numeric code
	return total
}
