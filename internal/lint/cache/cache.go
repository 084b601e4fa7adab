// Package cache is the lint driver's on-disk findings store: a
// content-addressed blob directory plus the fingerprint recipe that
// keys it. One fingerprint covers the sources of every package a run
// lists, so any edit anywhere changes the key and the stale entry is
// simply never looked up again — there is no invalidation pass, old
// entries just rot until the directory is pruned.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"locwatch/internal/lint/loader"
)

// FormatVersion salts every key. Bump it when the serialized finding
// format or the fingerprint recipe changes: every old entry misses and
// the cache rebuilds itself.
const FormatVersion = "locwatch-lint-cache/2"

// Dir is a content-addressed blob store rooted at a directory. Keys
// are hex digests; entries live at root/<key[:2]>/<key> so no single
// directory grows unboundedly.
type Dir struct {
	root string
}

// Open creates the cache directory if needed and returns a handle.
func Open(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Dir{root: root}, nil
}

func (d *Dir) entryPath(key string) string {
	return filepath.Join(d.root, key[:2], key)
}

// Get returns the blob stored under key, or ok=false on any miss —
// an unreadable entry is indistinguishable from an absent one, the
// caller recomputes either way.
func (d *Dir) Get(key string) ([]byte, bool) {
	if len(key) < 3 {
		return nil, false
	}
	data, err := os.ReadFile(d.entryPath(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put stores data under key atomically — written to a temp file in
// the same directory, then renamed — so a reader racing a writer sees
// either the whole entry or none of it, never a torn one.
func (d *Dir) Put(key string, data []byte) error {
	if len(key) < 3 {
		return fmt.Errorf("cache: key %q too short", key)
	}
	path := d.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Key condenses any ordered list of parts into one cache key. Parts
// are length-prefixed before hashing so ("ab","c") and ("a","bc")
// cannot collide.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		_, _ = fmt.Fprintf(h, "%d\n", len(p)) // hash.Hash.Write never errors
		_, _ = io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint digests the import path and the source bytes of every
// package in pkgs, in import-path order, into one hex string: an edit
// to any listed package changes it, a rewrite with identical bytes
// does not.
func Fingerprint(pkgs map[string]loader.PackageMeta) (string, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		m := pkgs[path]
		_, _ = fmt.Fprintf(h, "package %s\n", path) // hash.Hash.Write never errors
		for _, name := range m.GoFiles {
			data, err := os.ReadFile(filepath.Join(m.Dir, name))
			if err != nil {
				return "", fmt.Errorf("cache: %w", err)
			}
			sum := sha256.Sum256(data)
			_, _ = fmt.Fprintf(h, "file %s %s\n", name, hex.EncodeToString(sum[:]))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
