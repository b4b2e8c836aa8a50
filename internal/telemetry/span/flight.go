package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// DirEnv names the environment variable that overrides the flight-record
// artifact directory.
const DirEnv = "ARCK_FLIGHT_DIR"

// DefaultDir is where flight records land when DirEnv is unset.
const DefaultDir = "artifacts"

// ArtifactDir resolves the flight-record directory: dir if non-empty,
// else $ARCK_FLIGHT_DIR, else "artifacts".
func ArtifactDir(dir string) string {
	if dir != "" {
		return dir
	}
	if env := os.Getenv(DirEnv); env != "" {
		return env
	}
	return DefaultDir
}

// WriteArtifact serializes v as indented JSON to
// <ArtifactDir(dir)>/<name>.json, creating the directory as needed. The
// name is sanitized to a flat file name (path separators and other
// non-portable runes become '-'). It returns the path written.
//
// This is the single artifact writer shared by every breach-emitting
// tool (arckcrash breach artifacts, arckfsck reports), so all of them
// honor the same $ARCK_FLIGHT_DIR directory convention.
func WriteArtifact(dir, name string, v any) (string, error) {
	dir = ArtifactDir(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, name)
	path := filepath.Join(dir, name+".json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// WriteFile serializes the record via WriteArtifact.
func (fr *FlightRecord) WriteFile(dir, name string) (string, error) {
	return WriteArtifact(dir, name, fr)
}
