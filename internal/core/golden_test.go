package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/acfg"
	"repro/internal/dataset"
	"repro/internal/malgen"
)

// goldenModelSHA256 pins the exact bytes of the model produced by a
// fixed-seed 3-epoch training run (determinismConfig on the relabeled
// 24-sample MSKCFG corpus) — scoped to the DEFAULT conv backend only; the
// other backends carry their own digests in convGoldenSHA256 so kernel work
// on any backend is caught without the digests being conflated. The
// serialized form is JSON with struct fields in declaration order and
// shortest-round-trip float formatting, so the digest is stable across
// processes; any change means the numerical trajectory of training moved —
// a kernel reordered floating-point operations, an RNG stream shifted, or
// the reduction tree changed shape. If the change is intentional,
// regenerate with:
//
//	go test ./internal/core -run 'TestGoldenModelChecksum|TestConvBackendGoldenChecksums' -v
//
// and copy the digests printed in the failure messages.
//
// Every digest in this file is an amd64 digest. gc on amd64 never fuses a
// multiply and an add; gc on arm64 contracts x*y + z into one FMADD with a
// single rounding, so there the same Go source computes different bits and
// these runs reach different checkpoints.
const goldenModelSHA256 = "a638d53148c0c3337ff8ce9b07c7fd20570e49b2c914ae3f3b60d430d3829cc8"

// convGoldenSHA256 pins the same fixed-seed 3-epoch run for every
// non-default backend (cfg.Conv set explicitly, all else identical).
var convGoldenSHA256 = map[string]string{
	"attn": "b5bb89f359a2448e935f6052a1e0f26e4dbf0e846a56f1c19073b159668ba9d5",
	"sage": "8252538a6b8f02f1f1dccf42c1fee57399762ba01b00d32ca2c7ad91a5936037",
	"tag":  "acc23a1bb20509b33e07a7193098a22f6e6e7f09035494aa3a1fc990ccacfede",
}

// goldenCorpus builds the relabeled 24-sample MSKCFG corpus the golden runs
// train on.
func goldenCorpus(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	corpus, err := malgen.MSKCFG(malgen.Options{TotalSamples: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	two := dataset.New([]string{"even", "odd"})
	for i, s := range corpus.Samples {
		two.Add(&dataset.Sample{Name: s.Name, Label: i % 2, ACFG: s.ACFG})
	}
	train, val, err := two.TrainValSplit(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	return train, val
}

// goldenDigest trains a fresh model under cfg and returns the checkpoint's
// SHA-256.
func goldenDigest(t *testing.T, cfg Config, train, val *dataset.Dataset, workers int) string {
	t.Helper()
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, train, val, TrainOptions{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenModelChecksum is the cross-process determinism regression for
// the default backend: the same fixed-seed run must reproduce byte-identical
// checkpoints today, next week, and on any worker count. Workers=8 exceeds
// the fixed gradient shard count (maxGradShards=8), exercising the full
// sharding range. determinismConfig leaves Conv empty, which doubles as the
// seed-checkpoint format guard: the digest covers the serialized JSON, so it
// would move if the default config ever started writing a Conv field.
func TestGoldenModelChecksum(t *testing.T) {
	train, val := goldenCorpus(t)
	for _, workers := range []int{1, 8} {
		if got := goldenDigest(t, determinismConfig(), train, val, workers); got != goldenModelSHA256 {
			t.Errorf("workers=%d: model checksum %s, want %s", workers, got, goldenModelSHA256)
		}
	}
}

// TestConvBackendGoldenChecksums pins every non-default backend's numerics
// the same way, so future kernel or layer work cannot silently change any
// backend's training trajectory. One worker count suffices here — the
// conformance harness already proves Workers 1/4/8 bit-equality per backend.
func TestConvBackendGoldenChecksums(t *testing.T) {
	train, val := goldenCorpus(t)
	for _, name := range ConvBackendNames() {
		if name == defaultConvName {
			continue // pinned by TestGoldenModelChecksum
		}
		t.Run(name, func(t *testing.T) {
			cfg := determinismConfig()
			cfg.Conv = name
			want, ok := convGoldenSHA256[name]
			if !ok {
				t.Fatalf("backend %q has no golden digest; run with -v and record it", name)
			}
			if got := goldenDigest(t, cfg, train, val, 4); got != want {
				t.Errorf("model checksum %s, want %s", got, want)
			}
		})
	}
}

// goldenAMPHeadSHA256 and goldenAMPHeadInitFingerprint pin the head the
// service ships — core.DefaultConfig's AdaptiveMaxPooling head, which
// determinismConfig (SortPooling + WeightedVertices) never builds. The
// digests were recorded on the three-layer Conv2D → ReLU → AdaptiveMaxPool2D
// path before the fused nn.ConvAMP replaced it, so they hold
// the fused layer to that chain bit for bit: the checkpoint digest covers
// forward, backward and dropout over 3 epochs; the fingerprint covers
// parameter shapes, order and the RNG draw order at construction. Like
// goldenModelSHA256 they are amd64 digests: on amd64 nn.ConvAMP runs its SSE2
// kernels, which are bit-identical to the Go loops compiled for amd64, not
// to the FMADD-contracted loops gc compiles for arm64.
const (
	goldenAMPHeadSHA256          = "6840ce8442fda01119b642bd897ee46892a9e46c1860c7750cf831dba7dd1ee3"
	goldenAMPHeadInitFingerprint = "5749bbfdf25c4bcf8e57fcbf03716272966db6e90cfcca43b98bd31cb7f0963c"
)

// TestGoldenAMPHeadChecksum is TestGoldenModelChecksum for the default
// AdaptivePooling head, at workers 1, 4 and 8: DefaultConfig with only the
// run length and seed fixed, dropout at its default 0.1.
func TestGoldenAMPHeadChecksum(t *testing.T) {
	train, val := goldenCorpus(t)
	cfg := DefaultConfig(2, acfg.NumAttributes)
	cfg.Epochs = 3
	cfg.Seed = 11
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Fingerprint(); got != goldenAMPHeadInitFingerprint {
		t.Errorf("fresh model fingerprint %s, want %s", got, goldenAMPHeadInitFingerprint)
	}
	for _, workers := range []int{1, 4, 8} {
		if got := goldenDigest(t, cfg, train, val, workers); got != goldenAMPHeadSHA256 {
			t.Errorf("workers=%d: model checksum %s, want %s", workers, got, goldenAMPHeadSHA256)
		}
	}
}
