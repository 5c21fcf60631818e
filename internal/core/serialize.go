package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// savedModel is the on-disk form of a Weights: the configuration (enough to
// rebuild the architecture), the resolved k, the scaler and every parameter
// tensor in layer order.
type savedModel struct {
	Config  Config      `json:"config"`
	K       int         `json:"k"`
	Version string      `json:"version,omitempty"`
	Scaler  *Scaler     `json:"scaler,omitempty"`
	Params  [][]float64 `json:"params"`
}

// Save serializes the weights as JSON to out.
func (w *Weights) Save(out io.Writer) error {
	sm := savedModel{Config: w.Config, K: w.K, Version: w.Version, Scaler: w.scaler}
	for _, v := range w.values {
		sm.Params = append(sm.Params, v.Data)
	}
	if err := json.NewEncoder(out).Encode(sm); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// SaveFile writes the weights to path atomically: the bytes land in a temp
// file in the same directory which is fsynced and then renamed over path,
// so a crash mid-write can never destroy an existing valid checkpoint.
func (w *Weights) SaveFile(path string) error {
	return atomicWriteFile(path, w.Save)
}

// atomicWriteFile writes via write() into a temporary sibling of path and
// renames it into place only after a successful write, sync, and close.
// On any failure the temp file is removed and path is left untouched.
func atomicWriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("core: save model: sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("core: save model: close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: save model: rename: %w", err)
	}
	return nil
}

// Load reconstructs weights saved with Save and returns a replica bound to
// them.
func Load(r io.Reader) (*Model, error) {
	var sm savedModel
	if err := json.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	cfg := sm.Config
	cfg.K = sm.K // force the saved k instead of re-deriving it
	m, err := NewModel(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if len(sm.Params) != len(m.values) {
		return nil, fmt.Errorf("core: load model: %d parameter tensors, want %d", len(sm.Params), len(m.values))
	}
	for i, vals := range sm.Params {
		if len(vals) != len(m.values[i].Data) {
			return nil, fmt.Errorf("core: load model: parameter %d has %d values, want %d",
				i, len(vals), len(m.values[i].Data))
		}
		copy(m.values[i].Data, vals)
	}
	m.scaler = sm.Scaler
	m.Version = sm.Version
	return m, nil
}

// Fingerprint returns a hex SHA-256 digest over the architecture and every
// parameter value, in layer order. Two weight sets with equal fingerprints
// are numerically interchangeable: they produce bit-identical predictions
// for every input. The serving tier uses it to tell model versions apart by
// content rather than by label.
func (w *Weights) Fingerprint() string {
	h := sha256.New()
	cfgBytes, err := json.Marshal(w.Config)
	if err != nil {
		// Config is a plain struct of scalars and slices; Marshal cannot
		// fail on it. Guard anyway so a future field can't silently corrupt
		// the digest.
		panic(fmt.Sprintf("core: fingerprint config: %v", err))
	}
	_, _ = h.Write(cfgBytes)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(w.K))
	_, _ = h.Write(buf[:])
	for _, vs := range w.values {
		for _, v := range vs.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			_, _ = h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LoadFile reads weights from path and returns a replica bound to them.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer func() { _ = f.Close() }()
	return Load(f)
}
