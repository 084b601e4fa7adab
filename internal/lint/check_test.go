package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"locwatch/internal/lint"
)

// fixtureModule materializes a tiny self-contained module: package a
// has an errflow finding and imports package b, which is clean.
func fixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"a/a.go": `package a

import (
	"os"

	"tmpmod/b"
)

func Clean(name string) {
	os.Remove(b.Temp(name))
}
`,
		"b/b.go": `package b

func Temp(name string) string { return name + ".tmp" }
`,
	}
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCheckNoCache pins the driver end to end on a throwaway module:
// the errflow seed in package a is found, with a module-relative path,
// and the clean package b reports nothing.
func TestCheckNoCache(t *testing.T) {
	root := fixtureModule(t)
	findings, err := lint.Check(lint.CheckOptions{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "errflow" || findings[0].File != "a/a.go" || !findings[0].Active() {
		t.Fatalf("findings = %+v, want one active errflow finding in a/a.go", findings)
	}
}
