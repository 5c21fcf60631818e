// Package graph mimics the repo's graph API for the hotpathalloc golden
// case; its import path ends in internal/graph so the rule's suffix match
// treats it as the real package.
package graph

import "repro/internal/lint/testdata/src/hotpathalloc_bad/internal/tensor"

type Directed struct{ N int }

type CSR struct{ n int }

func NewCSR(g *Directed) *CSR { return &CSR{n: g.N} }

func (c *CSR) SpMMInto(dst, x *tensor.Matrix) {}

func (c *CSR) Dense() *tensor.Matrix { return tensor.New(c.n, c.n) }
