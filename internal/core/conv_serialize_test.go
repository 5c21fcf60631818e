package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// trainSmall fits a small model with the given backend for round-trip
// checks.
func trainSmall(t *testing.T, name string) (*Model, *bytes.Buffer) {
	t.Helper()
	cfg := conformanceConfig(name)
	rng := rand.New(rand.NewSource(53))
	d := twoClassDataset(rng, 5)
	m, err := NewModel(cfg, d.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m.Weights, d, nil, TrainOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return m, &buf
}

// TestConvBackendCheckpointRoundTrip proves Save→Load is lossless for every
// backend: equal fingerprints, byte-identical re-serialization and
// bit-identical predictions.
func TestConvBackendCheckpointRoundTrip(t *testing.T) {
	for _, name := range ConvBackendNames() {
		t.Run(name, func(t *testing.T) {
			m, buf := trainSmall(t, name)
			raw := append([]byte(nil), buf.Bytes()...)
			w, err := LoadWeights(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			loaded := w.NewReplica()
			if loaded.Config.ConvName() != name {
				t.Fatalf("loaded backend %q, want %q", loaded.Config.ConvName(), name)
			}
			if got, want := loaded.Fingerprint(), m.Fingerprint(); got != want {
				t.Fatalf("fingerprint drifted through the round trip:\n  got  %s\n  want %s", got, want)
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again.Bytes()) {
				t.Fatal("re-serialized checkpoint differs from the original bytes")
			}
			rng := rand.New(rand.NewSource(67))
			probe := twoClassDataset(rng, 2)
			for i, s := range probe.Samples {
				a := m.Predict(s.ACFG)
				b := loaded.Predict(s.ACFG)
				for c := range a {
					if a[c] != b[c] {
						t.Fatalf("sample %d class %d: loaded model predicts %v, original %v", i, c, b[c], a[c])
					}
				}
			}
		})
	}
}

// TestCheckpointMissingConvDefaults is the forward-compatibility contract:
// checkpoints written before backends existed carry no Conv field, and a
// default-config model still writes none (omitempty) — both must load as
// the paper's rule, so every seed-era checkpoint keeps working.
func TestCheckpointMissingConvDefaults(t *testing.T) {
	m, buf := trainSmall(t, "")
	raw := buf.String()
	if strings.Contains(raw, `"Conv"`) || strings.Contains(raw, `"ConvHops"`) {
		t.Fatal("default-config checkpoint serialized a Conv field; seed-format compatibility broken")
	}
	loaded, err := LoadWeights(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config.ConvName() != defaultConvName {
		t.Fatalf("missing Conv field resolved to %q, want %q", loaded.Config.ConvName(), defaultConvName)
	}
	if got, want := loaded.Fingerprint(), m.Fingerprint(); got != want {
		t.Fatalf("fingerprint drifted loading a conv-less checkpoint:\n  got  %s\n  want %s", got, want)
	}
}

// TestCheckpointUnknownConvBackend requires a clean, named error — not a
// panic or a silently wrong architecture — when a checkpoint selects a
// backend this build does not know.
func TestCheckpointUnknownConvBackend(t *testing.T) {
	_, buf := trainSmall(t, "")
	raw := strings.Replace(buf.String(), `"Classes":`, `"Conv":"hyperbolic","Classes":`, 1)
	if !strings.Contains(raw, `"Conv":"hyperbolic"`) {
		t.Fatal("failed to inject the unknown backend into the checkpoint JSON")
	}
	_, err := LoadWeights(strings.NewReader(raw))
	if err == nil {
		t.Fatal("loading an unknown conv backend succeeded")
	}
	if !strings.Contains(err.Error(), "unknown conv backend") || !strings.Contains(err.Error(), "hyperbolic") {
		t.Fatalf("error %q does not name the unknown backend", err)
	}
}

// TestConfigValidateConv covers the selection plumbing: every registered
// name (and the empty default) validates; junk names and out-of-range hop
// counts do not.
func TestConfigValidateConv(t *testing.T) {
	base := tinyConfig(SortPooling, WeightedVerticesHead)
	for _, name := range append([]string{""}, ConvBackendNames()...) {
		cfg := base
		cfg.Conv = name
		if err := cfg.Validate(); err != nil {
			t.Errorf("Conv=%q: %v", name, err)
		}
	}
	cfg := base
	cfg.Conv = "nope"
	if err := cfg.Validate(); err == nil {
		t.Error("Conv=nope validated")
	}
	cfg = base
	cfg.Conv = "tag"
	cfg.ConvHops = 9
	if err := cfg.Validate(); err == nil {
		t.Error("ConvHops=9 validated")
	}
	cfg.ConvHops = 3
	if err := cfg.Validate(); err != nil {
		t.Errorf("ConvHops=3: %v", err)
	}
}
