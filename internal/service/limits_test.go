package service

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/acfg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// chainASM returns a listing of exactly n basic blocks: n-1 jumps, each to
// the next instruction, then a ret.
func chainASM(n int) string {
	var sb strings.Builder
	addr := 0x401000
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "%08x jmp 0x%x\n", addr, addr+5)
		addr += 5
	}
	fmt.Fprintf(&sb, "%08x ret\n", addr)
	return sb.String()
}

// chainACFG returns an n-vertex path graph whose attributes vary by vertex.
func chainACFG(t testing.TB, n int) *acfg.ACFG {
	t.Helper()
	g := graph.NewDirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	attrs := tensor.New(n, acfg.NumAttributes)
	for i := range attrs.Data {
		attrs.Data[i] = float64(i % 7)
	}
	a, err := acfg.New(g, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestGraphVertexLimit: both routes take a graph of exactly
// maxGraphVertices from either body kind and answer 400, naming the count,
// to one vertex more.
func TestGraphVertexLimit(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	if err := srv.LoadModel(testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	post := map[string]func(n int) error{
		"/v1/predict asm":  func(n int) error { _, err := client.PredictASM(chainASM(n)); return err },
		"/v1/predict acfg": func(n int) error { _, err := client.PredictACFG(chainACFG(t, n)); return err },
		"/v1/samples asm":  func(n int) error { return client.AddSampleASM("clean", "", chainASM(n)) },
		"/v1/samples acfg": func(n int) error { return client.AddSampleACFG("dirty", "", chainACFG(t, n)) },
	}
	for name, do := range post {
		if err := do(maxGraphVertices); err != nil {
			t.Errorf("%s at the limit: %v", name, err)
		}
		err := do(maxGraphVertices + 1)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s over the limit: %v, want a 400", name, err)
			continue
		}
		if want := fmt.Sprintf("graph has %d vertices, limit is %d", maxGraphVertices+1, maxGraphVertices); apiErr.Message != want {
			t.Errorf("%s over the limit: message %q, want %q", name, apiErr.Message, want)
		}
	}
	if n, err := client.Stats(); err != nil || n["clean"] != 1 || n["dirty"] != 1 {
		t.Errorf("corpus after the table: %v (%v), want one sample per family", n, err)
	}
}

// workspaceBytes reads the summed replica slab bytes the batch engine last
// published. The gauge lives on the process-wide registry whichever
// registry the server was built with.
func workspaceBytes(t *testing.T) uint64 {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return uint64(parseExposition(t, sb.String())["magic_workspace_bytes"])
}

// TestReplicaWorkspaceTracksLargestGraph holds the serving heap claim under
// tier-1: after a few hundred predictions of all-distinct sizes, over both
// body kinds and through the admission batcher, the replica's scratch is
// what the single largest graph needs — not the sum over every size, which
// is what exact-size free lists kept — and a second pass adds nothing.
func TestReplicaWorkspaceTracksLargestGraph(t *testing.T) {
	srv, _, client := newTestServer(t, []string{"clean", "dirty"})
	// One replica, so which graphs it has seen does not depend on how
	// concurrent requests happened to be batched and sharded.
	if err := srv.SetParallelism(1); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadModel(testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	const sizes = 300 // asm bodies 1..150 blocks, acfg bodies 151..300 vertices
	pass := func() {
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for n := 1 + c; n <= sizes; n += 4 {
					var res *PredictResult
					var err error
					if n <= sizes/2 {
						res, err = client.PredictASM(chainASM(n))
					} else {
						res, err = client.PredictACFG(chainACFG(t, n))
					}
					if err != nil || res.Blocks != n {
						t.Errorf("predict %d vertices: %+v, %v", n, res, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		// Stats read mid-sample count the overflow chunks of a graph that
		// has just outgrown the slab; one more small request resets the
		// arena, which consolidates them.
		if _, err := client.PredictASM(chainASM(1)); err != nil {
			t.Fatal(err)
		}
	}

	// What the largest graph needs: a fresh replica of the same model that
	// has only ever seen that graph (the second Predict consolidates).
	alone := testModel(t, 1)
	alone.Predict(chainACFG(t, sizes))
	alone.Predict(chainACFG(t, 1))
	need := alone.WorkspaceStats().Bytes

	pass()
	first := workspaceBytes(t)
	t.Logf("largest graph alone: %d bytes; replica after %d sizes: %d bytes", need, sizes, first)
	if first > 2*need {
		t.Errorf("after %d distinct sizes the replica holds %d bytes of scratch, want within 2x of the largest graph's %d", sizes, first, need)
	}
	pass()
	if second := workspaceBytes(t); second > first {
		t.Errorf("a second pass over the same graphs grew the scratch %d -> %d bytes", first, second)
	}
}
