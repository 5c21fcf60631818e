package gateway

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func testBackends(n int) []string {
	bs := make([]string, n)
	for i := range bs {
		bs[i] = fmt.Sprintf("http://backend-%d:8080", i)
	}
	return bs
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("want error for empty backend set")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}); err == nil {
		t.Fatal("want error for duplicate backend")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Fatal("want error for empty backend URL")
	}
}

// TestRingSequenceCoversAllBackends checks every failover sequence is a
// permutation of the backend set.
func TestRingSequenceCoversAllBackends(t *testing.T) {
	r, err := NewRing(testBackends(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		seq := r.Sequence(key)
		if len(seq) != 5 {
			t.Fatalf("key %d: sequence %v, want 5 distinct backends", i, seq)
		}
		seen := map[string]bool{}
		for _, b := range seq {
			if seen[b] {
				t.Fatalf("key %d: backend %s repeated in %v", i, b, seq)
			}
			seen[b] = true
		}
	}
}

// TestRingStableAcrossConstruction checks placement is deterministic: two
// rings over the same backends route every key identically (the property
// that makes gateway restarts transparent).
func TestRingStableAcrossConstruction(t *testing.T) {
	r1, err := NewRing(testBackends(4))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(testBackends(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		if r1.Sequence(key)[0] != r2.Sequence(key)[0] {
			t.Fatalf("key %d: owners differ: %s vs %s", i, r1.Sequence(key)[0], r2.Sequence(key)[0])
		}
	}
}

// TestRingBalance checks virtual nodes spread the keyspace: with 64
// vnodes per backend, no backend should own a wildly disproportionate
// share of a uniform key sample.
func TestRingBalance(t *testing.T) {
	const backends, keys = 4, 4000
	r, err := NewRing(testBackends(backends))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		counts[r.Sequence(key)[0]]++
	}
	want := keys / backends
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("backend %s owns %d of %d keys, want roughly %d: %v", b, c, keys, want, counts)
		}
	}
}

// TestRingMinimalRemapping checks the consistent-hashing contract: adding
// a backend remaps only a bounded fraction of keys.
func TestRingMinimalRemapping(t *testing.T) {
	const keys = 2000
	r4, err := NewRing(testBackends(4))
	if err != nil {
		t.Fatal(err)
	}
	r5, err := NewRing(testBackends(5))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		if r4.Sequence(key)[0] != r5.Sequence(key)[0] {
			moved++
		}
	}
	// Ideal is 1/5 of keys; allow generous slack for vnode variance but
	// fail the naive mod-N behavior, which would move ~4/5 of them.
	if moved > keys*2/5 {
		t.Fatalf("adding a 5th backend moved %d/%d keys, want ~%d", moved, keys, keys/5)
	}
}
