package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// maxModelVersions bounds the registry. When a new version is registered
// past the bound, the oldest version that is neither active nor the
// rollback target is evicted; in-flight requests holding its serving
// snapshot drain unaffected (the snapshot keeps the weights alive).
const maxModelVersions = 8

// versionPrefix shapes generated model version IDs: mv-000001, mv-000002…
// A checkpointed model carries its ID across restarts, so the sequence
// counter is bumped past any replayed ID to keep new IDs unique.
const versionPrefix = "mv-"

// servingState is the immutable bundle a /v1/predict request works
// against: one model version, its admission-queue batcher (which owns the
// version's replicas), nothing else. The active state is swapped with a
// single atomic pointer store, so a request observes exactly one version
// end to end — a promote or rollback concurrent with a request can never
// mix versions within a batch, because a batcher is bound to one weight
// set for its whole life.
type servingState struct {
	version string
	batch   *batcher
}

// modelVersion is one registry entry. Its model is published: nothing
// writes it once it is registered.
type modelVersion struct {
	version     string
	model       *core.Weights
	state       *servingState
	fingerprint string
	source      string // "train", "continual", "load" or "checkpoint"
	registered  time.Time
}

// registerModelLocked adds m to the registry under its checkpointed
// version ID (assigning a fresh sequential ID when it has none) and
// returns the entry. Callers hold s.mu.
func (s *Server) registerModelLocked(m *core.Weights, source string) *modelVersion {
	if m.Version == "" {
		s.modelSeq++
		m.Version = fmt.Sprintf("%s%06d", versionPrefix, s.modelSeq)
	} else if n, ok := parseVersionSeq(m.Version); ok && n > s.modelSeq {
		s.modelSeq = n
	}
	mv := &modelVersion{
		version:     m.Version,
		model:       m,
		state:       s.buildServingStateLocked(m),
		fingerprint: m.Fingerprint(),
		source:      source,
		registered:  s.now(),
	}
	if _, exists := s.versions[mv.version]; !exists {
		s.versionOrder = append(s.versionOrder, mv.version)
	}
	s.versions[mv.version] = mv
	s.evictVersionsLocked()
	return mv
}

// buildServingStateLocked assembles the serving snapshot for m under the
// server's current batching and parallelism configuration.
func (s *Server) buildServingStateLocked(m *core.Weights) *servingState {
	return &servingState{
		version: m.Version,
		batch:   newBatcher(m, s.workersLocked(), s.batchMaxSize, s.batchMaxWait, s.servingMetrics),
	}
}

// promoteLocked makes version the active serving version, remembering the
// outgoing one as the rollback target. kind labels the swap for telemetry
// ("install", "promote" or "rollback"). The version must be registered;
// callers hold s.mu.
func (s *Server) promoteLocked(version, kind string) {
	mv := s.versions[version]
	if s.activeVersion == version {
		return
	}
	if s.activeVersion != "" {
		s.prevVersion = s.activeVersion
	}
	s.activeVersion = version
	s.model = mv.model
	s.trainedAt = s.now()
	s.serving.Store(mv.state)
	s.modelParams.Set(float64(mv.model.NumParameters()))
	s.servingMetrics.Swapped(kind, version, len(s.versions))
}

// evictVersionsLocked drops the oldest versions beyond maxModelVersions,
// never evicting the active version or the rollback target.
func (s *Server) evictVersionsLocked() {
	for len(s.versionOrder) > maxModelVersions {
		evicted := false
		for i, v := range s.versionOrder {
			if v == s.activeVersion || v == s.prevVersion {
				continue
			}
			delete(s.versions, v)
			s.versionOrder = append(s.versionOrder[:i], s.versionOrder[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
	s.servingMetrics.SetRetained(len(s.versions))
}

// parseVersionSeq extracts the numeric suffix of a generated version ID.
func parseVersionSeq(v string) (int, bool) {
	if !strings.HasPrefix(v, versionPrefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(v, versionPrefix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// modelVersionInfo is the wire form of one registry entry.
type modelVersionInfo struct {
	Version     string `json:"version"`
	Active      bool   `json:"active"`
	Parameters  int    `json:"parameters"`
	Fingerprint string `json:"fingerprint"`
	Source      string `json:"source"`
	Registered  string `json:"registered"`
}

// ModelsInfo is the wire form of GET/POST /v1/models, shared with the
// client.
type ModelsInfo struct {
	Active   string             `json:"active,omitempty"`
	Previous string             `json:"previous,omitempty"`
	Versions []modelVersionInfo `json:"versions"`
}

// modelsBody is the POST /v1/models request: promote a retained version or
// roll back to the previous active one.
type modelsBody struct {
	Action  string `json:"action"`
	Version string `json:"version,omitempty"`
}

// modelsInfoLocked snapshots the registry for the wire; callers hold s.mu.
func (s *Server) modelsInfoLocked() *ModelsInfo {
	info := &ModelsInfo{Active: s.activeVersion, Previous: s.prevVersion}
	info.Versions = make([]modelVersionInfo, 0, len(s.versions))
	for _, v := range s.versionOrder {
		mv := s.versions[v]
		info.Versions = append(info.Versions, modelVersionInfo{
			Version:     mv.version,
			Active:      mv.version == s.activeVersion,
			Parameters:  mv.model.NumParameters(),
			Fingerprint: mv.fingerprint,
			Source:      mv.source,
			Registered:  mv.registered.UTC().Format(time.RFC3339),
		})
	}
	sort.SliceStable(info.Versions, func(i, j int) bool {
		return info.Versions[i].Version < info.Versions[j].Version
	})
	return info
}

// handleModels serves GET /v1/models: the retained versions, the active
// one and the rollback target.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	info := s.modelsInfoLocked()
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, info)
}

// handleModelsPost serves POST /v1/models: {"action":"promote",
// "version":"mv-000001"} switches traffic to a retained version (blue/
// green), {"action":"rollback"} instantly restores the previous active
// version. Both are atomic pointer swaps; in-flight predictions finish on
// the version they started with.
func (s *Server) handleModelsPost(w http.ResponseWriter, r *http.Request) {
	var body modelsBody
	if err := decodeBody(w, r, &body); err != nil {
		WriteError(w, decodeStatus(err), err)
		return
	}

	s.mu.Lock()
	status := http.StatusOK
	var err error
	switch body.Action {
	case "promote":
		if body.Version == "" {
			status, err = http.StatusBadRequest, fmt.Errorf("promote needs a version")
		} else if _, ok := s.versions[body.Version]; !ok {
			status, err = http.StatusNotFound, fmt.Errorf("unknown model version %q", body.Version)
		} else {
			s.promoteLocked(body.Version, "promote")
		}
	case "rollback":
		if s.prevVersion == "" {
			status, err = http.StatusConflict, fmt.Errorf("no previous model version to roll back to")
		} else {
			s.promoteLocked(s.prevVersion, "rollback")
		}
	default:
		status, err = http.StatusBadRequest, fmt.Errorf("unknown action %q (want promote or rollback)", body.Action)
	}
	var ckptErr error
	if err == nil && s.store != nil && s.model != nil {
		// Persist the swap so a restart serves the promoted version.
		ckptErr = s.store.SaveModel(s.model)
	}
	info := s.modelsInfoLocked()
	s.mu.Unlock()

	switch {
	case err != nil:
		WriteError(w, status, err)
	case ckptErr != nil:
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("swap done but checkpoint failed: %w", ckptErr))
	default:
		WriteJSON(w, http.StatusOK, info)
	}
}
