package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/malgen"
)

// listingBody is a /v1/predict body as the benchmark's clients send it: a
// name and the first generated listing of minBytes to 1.1·minBytes,
// JSON-encoded.
func listingBody(tb testing.TB, minBytes int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	for {
		p := malgen.MSKProfileFor(rng.Intn(len(malgen.MSKCFGFamilies())))
		p.FuncMin *= 4
		p.FuncMax *= 4
		text := malgen.GenerateProgram(rand.New(rand.NewSource(rng.Int63())), p)
		if len(text) < minBytes || len(text) > minBytes+minBytes/10 {
			continue
		}
		raw, err := json.Marshal(sampleBody{Name: "walk", ASM: text})
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
}

func sampleRequest(data []byte, chunked bool) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(data))
	if chunked {
		r.ContentLength = -1
	}
	return r
}

// FuzzDecodeSample holds decodeSample — one read of the bounded body, the
// one-pass fast path, the decoder over the same bytes for the rest — to
// decodeBody, the json.Decoder over the MaxBytesReader the two handlers
// ran before: the same accept or reject, the same sampleBody, the same
// error text and status. oversize pads the body with blanks to one byte
// past maxBodyBytes; chunked hides its length.
func FuzzDecodeSample(f *testing.F) {
	for _, seed := range []string{
		`{"name":"n","family":"f","asm":"00401000 nop\n00401001 ret\n"}`,
		`{"asm":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
		`{"asm":"😀 é \ud800 A"}`,
		"{\"asm\":\"\xff\xfe\"}",
		"{\"asm\":\"café\"}",
		"{\"asm\":\"a\x01b\"}",
		"{\"asm\":\"\x7f\"}",
		`{"ASM":"x"}`,
		`{"Name":"x","asm":"y"}`,
		`{"asm":"a","asm":"b","name":"c","name":"d"}`,
		`null`,
		`{"asm":null}`,
		`{"asm":1}`,
		`{"asm":"x"} trailing`,
		`{"asm":"x"}{"asm":"y"}`,
		``,
		" \n\t\r ",
		`{}`,
		` { } `,
		`[]`,
		`{"asm":"x",}`,
		`{"asm" "x"}`,
		`{"asm":"x"`,
		`{"asm":"\x"}`,
		`{"asm":"\`,
		`{"acfg":{"n":1,"edges":[],"attrs":[[0,0,0,0,0,0,0,0,0,0,0]]}}`,
		`{"asm":"0 nop","acfg":{"n":1,"edges":[[0,0]],"attrs":[[1,0,0,0,0,0,0,0,1,1,1]]}}`,
	} {
		f.Add([]byte(seed), false, false)
		f.Add([]byte(seed), false, true)
	}
	f.Add(listingBody(f, 10000), false, false)
	f.Add([]byte(`{"asm":"`), true, false)   // 16 MiB + 1 bytes of one string: 413
	f.Add([]byte(`{"asm":"x"}`), true, true) // the value ends early: accepted

	f.Fuzz(func(t *testing.T, data []byte, oversize, chunked bool) {
		if oversize && len(data) <= maxBodyBytes {
			data = append(data, bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(data))...)
		}
		var got, want sampleBody
		gotErr := decodeSample(httptest.NewRecorder(), sampleRequest(data, chunked), &got)
		wantErr := decodeBody(httptest.NewRecorder(), sampleRequest(data, chunked), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error %v, decoder %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() || decodeStatus(gotErr) != decodeStatus(wantErr) {
				t.Fatalf("error %v (status %d), decoder %v (status %d)",
					gotErr, decodeStatus(gotErr), wantErr, decodeStatus(wantErr))
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, decoder %+v", got, want)
		}
	})
}

// TestDecodeSampleFastPath checks that the bodies clients send take the
// fast path, so FuzzDecodeSample's agreement is not the fallback agreeing
// with itself, and that the fast path refuses what it must leave to the
// decoder.
func TestDecodeSampleFastPath(t *testing.T) {
	for _, data := range []string{
		string(listingBody(t, 20000)),
		`{"family":"f","name":"n","asm":"00401000 mov eax, 1\n\t; \"x\" \\ \/ \b\f\r"}`,
		" {\n\"asm\" : \"x\" ,\r\n\"asm\":\"y\"\t} \n",
		`{}`,
	} {
		var body, want sampleBody
		if !decodeSampleFast([]byte(data), &body) {
			t.Fatalf("fast path refused %.80q", data)
		}
		if err := json.Unmarshal([]byte(data), &want); err != nil || !reflect.DeepEqual(body, want) {
			t.Fatalf("fast path decoded %.80q as %+v, encoding/json as %+v (%v)", data, body, want, err)
		}
	}
	for _, data := range []string{
		`{"asm":"\u0041"}`, "{\"asm\":\"é\"}", "{\"asm\":\"a\x7f\"}", `{"ASM":"x"}`,
		`{"acfg":null}`, `{"asm":null}`, `null`, `{"asm":"x"} x`, ``, `{"asm":"x",}`,
	} {
		body := sampleBody{Name: "kept"}
		if decodeSampleFast([]byte(data), &body) || body.Name != "kept" {
			t.Fatalf("fast path took %q (body %+v)", data, body)
		}
	}
}

// BenchmarkDecodeSample decodes a ≈ 28 KB listing body, the size
// classify-asm-large's clients send: decodeSample, and decodeBody's
// json.Decoder, which the two handlers ran before it.
func BenchmarkDecodeSample(b *testing.B) {
	data := listingBody(b, 27000)
	rd := bytes.NewReader(data)
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(data))
	w := httptest.NewRecorder()
	for _, bc := range []struct {
		name   string
		decode func(http.ResponseWriter, *http.Request, *sampleBody) error
	}{
		{"decodeSample", decodeSample},
		{"decodeBody", func(w http.ResponseWriter, r *http.Request, body *sampleBody) error { return decodeBody(w, r, body) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(data)
				var body sampleBody
				if err := bc.decode(w, r, &body); err != nil || !strings.HasPrefix(body.ASM, "00401000") {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
}
