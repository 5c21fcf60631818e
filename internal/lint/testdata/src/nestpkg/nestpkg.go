// Package nestpkg exercises the loader's testdata-skipping: its own nested
// testdata/inner package holds a blatant determinism finding that must not
// surface when this tree is loaded recursively, but must surface when the
// inner directory is loaded directly. Expected findings: 0.
package nestpkg

func Half(x float64) float64 { return x / 2 }
