package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// An Artifact is the machine-readable output of one runner invocation —
// what smtexp -json writes and the CI smoke steps read: per-experiment,
// per-point results with coordinates, metric values and wall-clock
// timings, plus enough metadata to attribute the run. (The BENCH_*.json
// files are go test -bench output from cmd/benchsmoke, not artifacts.)

// ArtifactVersion is bumped on incompatible schema changes.
const ArtifactVersion = 1

// Artifact is one runner invocation's complete output.
type Artifact struct {
	Version   int    `json:"version"`
	Tool      string `json:"tool,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// CreatedAt is an RFC 3339 timestamp, supplied by the caller.
	CreatedAt string `json:"created_at,omitempty"`
	// Workers is the pool size the run used.
	Workers     int             `json:"workers,omitempty"`
	Experiments []ExperimentRun `json:"experiments"`
}

// Encode writes the artifact as indented JSON.
func (a *Artifact) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// DecodeArtifact reads an artifact back from JSON.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("experiments: decode artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("experiments: artifact version %d, want %d", a.Version, ArtifactVersion)
	}
	return &a, nil
}

// WriteArtifact writes the artifact to path (atomically via a temp file
// in the same directory, so a crashed run never leaves a torn JSON).
func WriteArtifact(path string, a *Artifact) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".artifact-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := a.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would survive the rename; publish world-readable.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadArtifact reads an artifact from path.
func ReadArtifact(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeArtifact(f)
}
