// Package gateway implements magic-gateway, the fleet serving tier in
// front of N magic-server backends. It load-balances uploads and
// predictions over the fleet with a consistent-hash ring (so the same
// sample content always lands on the same backend, and adding or removing
// a backend only remaps ~1/N of the key space), fails over to the next
// ring node when a backend dies, deduplicates repeat predictions through
// an ACFG-content-hash cache, and fans /v1/models control operations out
// to every backend so the whole fleet promotes or rolls back together.
// DESIGN.md's "Fleet serving" section walks through the semantics.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodesPerBackend is how many points each backend contributes to the
// ring. 64 virtual nodes keep the keyspace share of any backend within a
// few percent of 1/N without making ring construction or lookup costly.
const vnodesPerBackend = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a backend.
type ringPoint struct {
	hash    uint64
	backend int // index into Ring.backends
}

// Ring is an immutable consistent-hash ring over a fixed backend set.
type Ring struct {
	backends []string
	points   []ringPoint // sorted by hash
}

// NewRing builds a ring over the given backend base URLs. Backends must
// be non-empty and distinct — duplicate URLs would silently double a
// backend's keyspace share.
func NewRing(backends []string) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("gateway: ring needs at least one backend")
	}
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("gateway: empty backend URL")
		}
		if seen[b] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", b)
		}
		seen[b] = true
	}
	r := &Ring{
		backends: append([]string(nil), backends...),
		points:   make([]ringPoint, 0, len(backends)*vnodesPerBackend),
	}
	for i, b := range r.backends {
		for v := 0; v < vnodesPerBackend; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(b, v), backend: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// ringHash places virtual node v of a backend on the circle: the first 8
// bytes of SHA-256 over "url|v". SHA-256 keeps placement independent of
// Go's randomized map/string hashing, so the ring is stable across
// processes — a gateway restart routes keys exactly as before.
func ringHash(backend string, v int) uint64 {
	h := sha256.New()
	_, _ = h.Write([]byte(backend))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	_, _ = h.Write(buf[:])
	return binary.LittleEndian.Uint64(h.Sum(nil)[:8])
}

// keyPoint places a routing key on the circle using the first 8 bytes of
// its (already SHA-256) digest.
func keyPoint(key [sha256.Size]byte) uint64 {
	return binary.LittleEndian.Uint64(key[:8])
}

// Backends returns the backend URLs in construction order.
func (r *Ring) Backends() []string { return r.backends }

// Sequence returns every backend exactly once, ordered by ring distance
// from key: the owner first, then each successive failover target. The
// caller walks the slice until a backend answers.
func (r *Ring) Sequence(key [sha256.Size]byte) []string {
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= keyPoint(key)
	})
	seq := make([]string, 0, len(r.backends))
	taken := make([]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(seq) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.backend] {
			taken[p.backend] = true
			seq = append(seq, r.backends[p.backend])
		}
	}
	return seq
}
