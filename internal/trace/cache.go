package trace

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// cacheName is the cache file the parser drops next to a trace directory
// (§V-A: the parser "verifies the existence of a binary cache for the given
// input trace" and skips re-parsing when one is found), in the versioned
// binary format of codec.go.
const cacheName = ".trace-cache.bin"

// cachePath returns the binary cache location for a trace directory.
func cachePath(dir string) string { return filepath.Join(dir, cacheName) }

// SaveCache writes the binary cache for a parsed trace.
func SaveCache(dir string, t *Trace) error {
	f, err := os.Create(cachePath(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := EncodeBinary(f, t); err != nil {
		return fmt.Errorf("trace: encoding cache: %w", err)
	}
	return nil
}

// LoadCache reads a binary cache if present and fresh (at least as new as
// every rank file in the directory). ok is false when the cache is absent
// or stale; any other stat failure (permissions, ENOTDIR, I/O) is a real
// error, not a cache miss.
func LoadCache(dir string) (t *Trace, ok bool, err error) {
	path := cachePath(dir)
	st, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false, err
	}
	for _, e := range entries {
		if e.IsDir() || !anyFormatFile(e.Name()) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, false, err
		}
		if fi.ModTime().After(st.ModTime()) {
			return nil, false, nil // stale
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	t, err = DecodeBinary(data)
	if errors.Is(err, ErrNotBinaryCache) {
		return nil, false, nil // unknown version: re-parse and overwrite
	}
	if err != nil {
		return nil, false, fmt.Errorf("trace: decoding cache: %w", err)
	}
	return t, true, nil
}

// anyFormatFile reports whether name belongs to any registered format.
func anyFormatFile(name string) bool {
	for _, f := range Formats() {
		if _, ok := f.MatchFile(name); ok {
			return true
		}
	}
	return false
}

// Load parses the trace in dir (format auto-detected), consulting and
// refreshing the binary cache — the full §V-A parsing stage.
func Load(dir, app string) (*Trace, error) {
	if t, ok, err := LoadCache(dir); err == nil && ok {
		return t, nil
	} else if err != nil {
		return nil, err
	}
	t, err := LoadDir(dir, app)
	if err != nil {
		return nil, err
	}
	if err := SaveCache(dir, t); err != nil {
		return nil, err
	}
	return t, nil
}
