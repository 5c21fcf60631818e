package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ConvBackend is the pluggable graph-convolution stage of the model: it maps
// one graph's propagation operator plus vertex attributes to the
// concatenated per-layer embeddings Z^{1:h} consumed by the pooling stage.
//
// Every backend obeys the same contracts as the rest of the hot path:
//
//   - Forward/Backward draw all per-sample intermediates from the installed
//     workspace (*Into kernels, dirty checkouts), so a warmed-up backend
//     allocates nothing per sample.
//   - Forward caches whatever the matching Backward needs; caches are
//     workspace memory valid until the next Forward. A backend therefore
//     serves one goroutine; data parallelism replicates the owning Model.
//   - All accumulation orders are fixed, making training bit-deterministic
//     at any worker count.
//
// The conformance harness in conv_conformance_test.go runs every registered
// backend through FD gradient checks, zero-alloc pinning, cross-worker
// determinism, replicate aliasing, edge cases and differential fuzz against
// a straight-loop oracle; a new backend is done when it passes that suite.
type ConvBackend interface {
	// Name returns the registry name the backend was built under.
	Name() string
	// Forward computes the concatenated Z^{1:h} (n × Σ c_t) for one graph.
	Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix
	// Backward consumes ∂L/∂Z^{1:h}, accumulates parameter gradients and
	// returns ∂L/∂X. Must follow a Forward call on the same sample.
	Backward(dconcat *tensor.Matrix) *tensor.Matrix
	// Params exposes the backend's weights to the optimizer in a stable
	// order (the serialization contract).
	Params() []*nn.Param
	// SetWorkspace installs the scratch workspace for per-sample buffers.
	SetWorkspace(ws *nn.Workspace)
}

// defaultConvName is the paper's propagation rule (Eq. 1); an empty
// Config.Conv selects it, which keeps seed-era checkpoints (no Conv field)
// loading unchanged.
const defaultConvName = "gcn"

// defaultConvHops is the hop count of the "tag" backend when
// Config.ConvHops is zero.
const defaultConvHops = 2

// convBuilders registers every backend constructor by name. Builders draw
// initialization exclusively from rng, in a fixed per-layer order, so
// Replicate can rebuild an identically-shaped backend and alias the weights.
var convBuilders = map[string]func(rng *rand.Rand, cfg *Config) ConvBackend{
	"gcn": func(rng *rand.Rand, cfg *Config) ConvBackend {
		return NewGraphConvStack(rng, cfg.AttrDim, cfg.ConvSizes)
	},
	"sage": func(rng *rand.Rand, cfg *Config) ConvBackend {
		return NewSAGEStack(rng, cfg.AttrDim, cfg.ConvSizes)
	},
	"tag": func(rng *rand.Rand, cfg *Config) ConvBackend {
		return NewTAGStack(rng, cfg.AttrDim, cfg.ConvSizes, cfg.resolveConvHops())
	},
	"attn": func(rng *rand.Rand, cfg *Config) ConvBackend {
		return NewAttnStack(rng, cfg.AttrDim, cfg.ConvSizes)
	},
}

// ConvBackendNames lists the registered backends in sorted order.
func ConvBackendNames() []string {
	names := make([]string, 0, len(convBuilders))
	for name := range convBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newConvBackend builds the backend selected by cfg.Conv. cfg must already
// be validated, so the lookup cannot miss.
func newConvBackend(rng *rand.Rand, cfg *Config) ConvBackend {
	build, ok := convBuilders[cfg.ConvName()]
	if !ok {
		panic(fmt.Sprintf("core: conv backend %q passed validation but is not registered", cfg.Conv))
	}
	return build(rng, cfg)
}

// ConvName resolves the configured backend name, mapping the empty value to
// the paper's default rule.
func (c *Config) ConvName() string {
	if c.Conv == "" {
		return defaultConvName
	}
	return c.Conv
}

// resolveConvHops resolves the TAG hop count, mapping zero to the default.
func (c *Config) resolveConvHops() int {
	if c.ConvHops == 0 {
		return defaultConvHops
	}
	return c.ConvHops
}

// validateConv reports configuration errors in the backend selection.
func (c *Config) validateConv() error {
	if _, ok := convBuilders[c.ConvName()]; !ok {
		return fmt.Errorf("core: unknown conv backend %q (known: %s)",
			c.Conv, strings.Join(ConvBackendNames(), ", "))
	}
	if c.ConvHops < 0 || c.ConvHops > 8 {
		return fmt.Errorf("core: conv hops %d outside [0, 8]", c.ConvHops)
	}
	return nil
}
