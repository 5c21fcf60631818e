package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestTrainCancellation covers the Stop channel contract: an already
// closed channel aborts before the first batch, and a channel closed from
// an epoch observer stops the run at the next batch boundary with
// ErrCancelled.
func TestTrainCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	train := twoClassDataset(rng, 8)
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	cfg.Epochs = 50

	t.Run("pre-closed", func(t *testing.T) {
		m, err := NewModel(cfg, train.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		close(stop)
		if _, err := Train(m.Weights, train, nil, TrainOptions{Stop: stop}); !errors.Is(err, ErrCancelled) {
			t.Fatalf("Train with closed stop channel: err = %v, want ErrCancelled", err)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		m, err := NewModel(cfg, train.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		epochs := 0
		_, err = Train(m.Weights, train, nil, TrainOptions{
			Stop: stop,
			Observer: EpochObserverFunc(func(e EpochStats) {
				epochs++
				if epochs == 2 {
					close(stop)
				}
			}),
		})
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Train cancelled mid-run: err = %v, want ErrCancelled", err)
		}
		if epochs < 2 || epochs > 3 {
			t.Fatalf("observed %d epochs, want cancellation within one epoch of the request", epochs)
		}
	})

	t.Run("nil-stop", func(t *testing.T) {
		short := cfg
		short.Epochs = 2
		m, err := NewModel(short, train.Sizes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Train(m.Weights, train, nil, TrainOptions{}); err != nil {
			t.Fatalf("Train with nil stop channel: %v", err)
		}
	})
}

// TestSaveFileAtomic guards the non-atomic-save fix: a failed write must
// never replace an existing valid checkpoint, and must not leave temp
// files behind.
func TestSaveFileAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	train := twoClassDataset(rng, 6)
	cfg := tinyConfig(SortPooling, WeightedVerticesHead)
	m, err := NewModel(cfg, train.Sizes())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A writer that emits half a record and then dies — the partial-write
	// crash the atomic rename protects against.
	failure := errors.New("disk full")
	err = atomicWriteFile(path, func(w io.Writer) error {
		if _, err := fmt.Fprint(w, `{"config":`); err != nil {
			return err
		}
		return failure
	})
	if !errors.Is(err, failure) {
		t.Fatalf("atomicWriteFile error = %v, want the writer's failure", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(valid) {
		t.Fatal("failed write replaced the valid checkpoint")
	}
	if m2, err := LoadFile(path); err != nil {
		t.Fatalf("checkpoint unreadable after failed overwrite: %v", err)
	} else if m2.NumParameters() != m.NumParameters() {
		t.Fatal("checkpoint content changed after failed overwrite")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "model.json" {
			t.Fatalf("leftover file %q after failed atomic write", e.Name())
		}
	}

	// A successful overwrite still goes through.
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}
