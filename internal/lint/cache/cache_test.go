package cache

import (
	"os"
	"path/filepath"
	"testing"

	"locwatch/internal/lint/loader"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func testMetas(t *testing.T) (string, map[string]loader.PackageMeta) {
	t.Helper()
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "a", "a.go"), "package a\n\nimport \"m/b\"\n\nfunc A() int { return b.B() }\n")
	writeFile(t, filepath.Join(root, "b", "b.go"), "package b\n\nfunc B() int { return 1 }\n")
	writeFile(t, filepath.Join(root, "c", "c.go"), "package c\n\nfunc C() int { return 2 }\n")
	return root, map[string]loader.PackageMeta{
		"m/a": {Dir: filepath.Join(root, "a"), GoFiles: []string{"a.go"}},
		"m/b": {Dir: filepath.Join(root, "b"), GoFiles: []string{"b.go"}},
		"m/c": {Dir: filepath.Join(root, "c"), GoFiles: []string{"c.go"}},
	}
}

func fingerprint(t *testing.T, metas map[string]loader.PackageMeta) string {
	t.Helper()
	fp, err := Fingerprint(metas)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintsStable pins that the fingerprint is a pure function
// of content: recomputing over untouched sources reproduces it, and a
// rewrite with identical bytes (a "touch") changes nothing.
func TestFingerprintsStable(t *testing.T) {
	root, metas := testMetas(t)
	first := fingerprint(t, metas)
	if again := fingerprint(t, metas); again != first {
		t.Fatal("fingerprint changed between two runs over the same sources")
	}
	writeFile(t, filepath.Join(root, "b", "b.go"), "package b\n\nfunc B() int { return 1 }\n")
	if fingerprint(t, metas) != first {
		t.Fatal("fingerprint changed after a no-op touch")
	}
}

// TestFingerprintsSourceEdit pins what moves the fingerprint: an edit
// to any package's sources, and a change to the set of listed
// packages.
func TestFingerprintsSourceEdit(t *testing.T) {
	root, metas := testMetas(t)
	before := fingerprint(t, metas)
	writeFile(t, filepath.Join(root, "c", "c.go"), "package c\n\nfunc C() int { return 3 }\n")
	edited := fingerprint(t, metas)
	if edited == before {
		t.Fatal("fingerprint survived a source edit")
	}
	delete(metas, "m/c")
	if fingerprint(t, metas) == edited {
		t.Fatal("fingerprint survived dropping a package from the listing")
	}
}

// TestFingerprintsErrors covers the failure mode: metadata naming a
// missing source file.
func TestFingerprintsErrors(t *testing.T) {
	broken := map[string]loader.PackageMeta{
		"m/a": {Dir: "/no/such/dir", GoFiles: []string{"a.go"}},
	}
	if _, err := Fingerprint(broken); err == nil {
		t.Fatal("missing source file went unnoticed")
	}
}

// TestKeyDistinct pins the length-prefixing: shifting bytes between
// adjacent parts must produce a different key.
func TestKeyDistinct(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal(`Key("ab","c") == Key("a","bc")`)
	}
	if Key("x") == Key("x", "") {
		t.Fatal(`Key("x") == Key("x","")`)
	}
}

// TestDirRoundTrip covers the blob store: miss before Put, hit after,
// overwrite wins, and junk keys are rejected or miss cleanly.
func TestDirRoundTrip(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := Key("entry")
	if _, ok := d.Get(key); ok {
		t.Fatal("hit before Put")
	}
	if err := d.Put(key, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(key); !ok || string(got) != "one" {
		t.Fatalf("Get = %q, %v; want \"one\", true", got, ok)
	}
	if err := d.Put(key, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get(key); string(got) != "two" {
		t.Fatalf("overwrite lost: got %q", got)
	}
	if err := d.Put("xy", nil); err == nil {
		t.Fatal("short key accepted")
	}
	if _, ok := d.Get(""); ok {
		t.Fatal("empty key hit")
	}
}
