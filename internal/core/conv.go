package core

import (
	"fmt"
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
//     serves one goroutine; each replica (Weights.NewReplica) builds its own.
//   - All accumulation orders are fixed, making training bit-deterministic
//     at any worker count.
//
// The conformance harness in conv_conformance_test.go runs every registered
// backend through FD gradient checks, zero-alloc pinning, cross-worker
// determinism, replica aliasing, edge cases and differential fuzz against
// a straight-loop oracle; a new backend is done when it passes that suite.
type ConvBackend interface {
	// Forward computes the concatenated Z^{1:h} (n × Σ c_t) for one graph.
	Forward(csr *graph.CSR, x *tensor.Matrix) *tensor.Matrix
	// Backward consumes ∂L/∂Z^{1:h}, accumulates parameter gradients and
	// returns ∂L/∂X. Must follow a Forward call on the same sample.
	Backward(dconcat *tensor.Matrix) *tensor.Matrix
	// Params exposes the backend's weights in a stable order (the
	// serialization contract).
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

// convBuilders registers every backend constructor by name. Each takes its
// weights from the paramSource layer by layer (convLayers), so a fresh
// weight set is drawn, and a replica's layers are built over the given one,
// in one fixed order.
var convBuilders = map[string]func(p *paramSource, cfg *Config) ConvBackend{
	"gcn":  func(p *paramSource, cfg *Config) ConvBackend { return NewGraphConvStack(p.convLayers(cfg, 1)) },
	"sage": func(p *paramSource, cfg *Config) ConvBackend { return NewSAGEStack(p.convLayers(cfg, 2)) },
	"attn": func(p *paramSource, cfg *Config) ConvBackend { return NewAttnStack(p.convLayers(cfg, 1)) },
	"tag": func(p *paramSource, cfg *Config) ConvBackend {
		return NewTAGStack(p.convLayers(cfg, cfg.resolveConvHops()+1))
	},
}

// convLayers takes perLayer Glorot-uniform c_t × c_{t+1} weight matrices
// for each graph-convolution layer t, mapping cfg.AttrDim → ConvSizes[0] →
// ConvSizes[1] → …; layers[t] holds layer t's.
func (p *paramSource) convLayers(cfg *Config, perLayer int) [][]*tensor.Matrix {
	layers := make([][]*tensor.Matrix, len(cfg.ConvSizes))
	in := cfg.AttrDim
	for t, out := range cfg.ConvSizes {
		for range perLayer {
			layers[t] = append(layers[t], p.glorot(in, out))
		}
		in = out
	}
	return layers
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

// newConvBackend builds the backend selected by cfg.Conv over the weights p
// hands out. cfg must already be validated, so the lookup cannot miss.
func newConvBackend(p *paramSource, cfg *Config) ConvBackend {
	build, ok := convBuilders[cfg.ConvName()]
	if !ok {
		panic(fmt.Sprintf("core: conv backend %q passed validation but is not registered", cfg.Conv))
	}
	return build(p, cfg)
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
