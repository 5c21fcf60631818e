// Package inner lives under nestpkg/testdata and is skipped by recursive
// walks; loaded directly it yields one determinism finding.
package inner

import "math/rand"

func Roll() int { return rand.Intn(6) }
