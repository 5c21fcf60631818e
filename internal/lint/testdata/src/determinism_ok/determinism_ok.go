// Package determinism_ok is a golden case of the lint checks: the deterministic
// counterpart of determinism_bad. Expected findings: 0.
package determinism_ok

import (
	"math/rand"
	"sort"
)

// Sum draws from an explicitly seeded stream and iterates the map in
// sorted key order (the recognized collect-then-sort shape).
func Sum(m map[string]float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := rng.Float64()
	for _, k := range keys {
		total += m[k]
	}
	return total
}
