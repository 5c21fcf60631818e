package malgen

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/acfg"
)

// goldenFrontHalf is one SHA-256 over the ContentHash of every sample of a
// seeded MSKCFG corpus followed by the ContentHash of an obfuscated variant
// of every listing. It was computed at commit 7493e98 — before the front
// half (asm → cfg → acfg) was rewritten around slabs — and must only change
// when extraction semantics change on purpose.
const goldenFrontHalf = "9a17d360c20e30ffff6575fef9aae5745687cced9747c0a0fa67ba8ab3e7cabe"

func TestGoldenFrontHalfContentHash(t *testing.T) {
	d, texts, err := MSKCFGTexts(Options{TotalSamples: 120, Seed: 20261005, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	for _, s := range d.Samples {
		h := s.ACFG.ContentHash()
		sum.Write(h[:])
	}
	rng := rand.New(rand.NewSource(7))
	for i, text := range texts {
		obf, err := ObfuscateProgram(rng, text, 0.25*float64(1+i%4))
		if err != nil {
			t.Fatalf("obfuscate listing %d: %v", i, err)
		}
		a, err := acfg.FromASM(obf)
		if err != nil {
			t.Fatalf("extract obfuscated listing %d: %v", i, err)
		}
		h := a.ContentHash()
		sum.Write(h[:])
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenFrontHalf {
		t.Fatalf("front-half golden moved:\n got %s\nwant %s", got, goldenFrontHalf)
	}
}
