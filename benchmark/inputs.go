package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/acfg"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/malgen"
)

// input is one generated request. The wire body is `{"name":"<id>",` followed
// by rest: the name carries the request id (the servers ignore it on
// /v1/predict, the gateway forwards it verbatim and it is not part of the
// ACFG content hash), so the same input sent twice is the same graph.
type input struct {
	rest   []byte     // `"acfg":{…}}`, `"asm":"…"}` or `"family":"…","acfg":{…}}`
	graph  *acfg.ACFG // what the server classifies; for a listing, extractListing's result
	asm    string     // the listing, when the body carries one
	family string     // label, for lifecycle samples
	label  int
}

// extractListing runs the paper's front half in-process: the ACFG the
// server must be classifying when it is sent this listing.
func extractListing(text string) (*acfg.ACFG, error) {
	prog, err := asm.ParseString(text)
	if err != nil {
		return nil, err
	}
	c := cfg.Build(prog)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return acfg.FromCFG(c), nil
}

// body writes the wire body for request id into buf.
func (in *input) body(buf []byte, id string) []byte {
	buf = append(buf[:0], `{"name":"`...)
	buf = append(buf, id...)
	buf = append(buf, `",`...)
	return append(buf, in.rest...)
}

// anyClass makes acfgInputs take the thirteen classes in rotation.
const anyClass = -1

// acfgInputs generates n YANCFG-style pre-extracted graphs (~50 vertices,
// ~2 KB of JSON) of the given class, or of all thirteen classes in rotation:
// the classes' size ranges differ fivefold, and a fixed class mix keeps a
// pool's mean cost from moving with the seed. With labelled set, the body
// also names the family, as /v1/samples requires.
func acfgInputs(rng *rand.Rand, n, class int, labelled bool) ([]input, error) {
	families := malgen.YANCFGFamilies()
	out := make([]input, n)
	for i := range out {
		label := class
		if class == anyClass {
			label = i % len(families)
		}
		a := malgen.GenerateACFG(rand.New(rand.NewSource(rng.Int63())), malgen.YanProfileFor(label))
		raw, err := json.Marshal(a)
		if err != nil {
			return nil, fmt.Errorf("encode acfg input %d: %w", i, err)
		}
		rest := []byte(`"acfg":`)
		if labelled {
			rest = []byte(fmt.Sprintf(`"family":%q,"acfg":`, families[label]))
		}
		rest = append(append(rest, raw...), '}')
		out[i] = input{rest: rest, graph: a, family: families[label], label: label}
	}
	return out, nil
}

// asmFuncScale multiplies the MSK profiles' function counts so a listing is
// tens of KB of text and hundreds of basic blocks: large enough that
// per-vertex work, not the admission window, dominates a request.
const asmFuncScale = 4

// asmBands are the basic-block-count bands the listing pool is filled from,
// the same number of listings from each. A request's cost grows with its
// graph, and the generator's natural sizes have a long tail (45 to ~1000
// blocks): left alone, the pool's mean cost would move ±10 % with the seed.
// With the bands the seed chooses the programs, not the size histogram. The
// top band is narrow because the pool's few largest listings are the tail:
// p99 of a cycled pool of 128 is set by its largest one or two.
var asmBands = []int{50, 80, 110, 140, 180, 230, 300, 380, 420}

// asmInputs generates n raw .asm listings from the nine MSK profiles,
// n/8 per size band, in the order the generator produces fitting ones.
func asmInputs(rng *rand.Rand, n int) ([]input, error) {
	nProfiles := len(malgen.MSKCFGFamilies())
	bands := len(asmBands) - 1
	perBand := (n + bands - 1) / bands
	filled := make([]int, bands)
	out := make([]input, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 200*n {
			return nil, fmt.Errorf("asm inputs: %d candidates filled only %d of %d listings (per band: %v)", tries, len(out), n, filled)
		}
		p := malgen.MSKProfileFor(rng.Intn(nProfiles))
		p.FuncMin *= asmFuncScale
		p.FuncMax *= asmFuncScale
		text := malgen.GenerateProgram(rand.New(rand.NewSource(rng.Int63())), p)
		a, err := extractListing(text)
		if err != nil {
			return nil, fmt.Errorf("asm inputs: generated listing does not extract: %w", err)
		}
		band := sort.SearchInts(asmBands, a.NumVertices()+1) - 1
		if band < 0 || band >= bands || filled[band] == perBand {
			continue
		}
		filled[band]++
		raw, err := json.Marshal(text)
		if err != nil {
			return nil, fmt.Errorf("encode asm input: %w", err)
		}
		out = append(out, input{rest: append(append([]byte(`"asm":`), raw...), '}'), graph: a, asm: text})
	}
	return out, nil
}
