// Package loader parses and type-checks Go packages for the lint
// framework using only the standard library. Module-local packages are
// type-checked from source, resolved either through `go list` (the
// real repository) or through a GOPATH-style source root
// (analysistest fixtures); standard-library imports are read from the
// compiler export data that `go list -export` reports.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	Path string // import path
	Name string // package name
	Dir  string // directory holding the sources

	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Resolver maps an import path to the directory and file list of a
// module-local package. ok=false defers the path to the standard
// library importer.
type Resolver func(importPath string) (dir string, goFiles []string, ok bool, err error)

// Loader loads packages on demand and memoizes the results. It is not
// safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	resolve Resolver
	std     types.Importer
	// exports maps standard-library import paths to export data files.
	// A path missing from it is filled by `go list -export -deps`.
	exports map[string]string

	pkgs    map[string]*Package
	loading map[string]bool // packages on the current Load stack
}

// New returns a Loader over the given resolver.
func New(resolve Resolver) *Loader {
	l := &Loader{
		Fset:    token.NewFileSet(),
		resolve: resolve,
		exports: make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.Fset, "gc", l.openExport)
	return l
}

// Load returns the package at the given import path, type-checking it
// (and its module-local dependencies) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	p, err := l.typeCheck(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) typeCheck(path string) (*Package, error) {
	dir, files, ok, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("loader: cannot resolve %s", path)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", path)
	}

	astFiles := make([]*ast.File, 0, len(files))
	for _, name := range files {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		astFiles = append(astFiles, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importDep),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, astFiles, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}

	return &Package{
		Path:      path,
		Name:      tpkg.Name(),
		Dir:       dir,
		Fset:      l.Fset,
		Files:     astFiles,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// importDep satisfies imports during type-checking: module-local paths
// go through Load, everything else through the export-data importer.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if _, _, ok, err := l.resolve(path); err != nil {
		return nil, err
	} else if ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// openExport is the export-data importer's lookup. On a miss it lists
// the path's dependency closure with `go list -export -deps` and
// remembers every entry, so one run serves most later misses too.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		if err := l.addExports("", "-deps", path); err != nil {
			return nil, err
		}
	}
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("loader: no export data for %s", path)
	}
	return os.Open(file)
}

// addExports runs `go list -export` in dir over args and records the
// export data file of every listed package.
func (l *Loader) addExports(dir string, args ...string) error {
	listed, err := goList(dir, append([]string{"-export"}, args...))
	if err != nil {
		return err
	}
	for _, p := range listed {
		l.exports[p.ImportPath] = p.Export
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// PackageMeta describes one non-standard package as reported by
// `go list`: where its sources live.
type PackageMeta struct {
	Dir     string
	GoFiles []string // source file names, tests excluded
}

// Module is one `go list -deps` listing of a module's packages.
type Module struct {
	// Roots are the sorted import paths matching the patterns.
	Roots []string
	// Packages holds every non-standard package in the transitive
	// dependency graph of the patterns, keyed by import path.
	Packages map[string]PackageMeta

	dir string
	std []string // standard-library packages in the listing
}

// GoListDeps resolves patterns (e.g. "./..."; none means "./...")
// against the module rooted at dir with a single `go list -deps`.
func GoListDeps(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	m := &Module{Packages: make(map[string]PackageMeta), dir: dir}
	for _, p := range listed {
		if p.Standard {
			m.std = append(m.std, p.ImportPath)
			continue
		}
		m.Packages[p.ImportPath] = PackageMeta{Dir: p.Dir, GoFiles: p.GoFiles}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			m.Roots = append(m.Roots, p.ImportPath)
		}
	}
	sort.Strings(m.Roots)
	return m, nil
}

// Load type-checks the roots and their module-local dependencies,
// reading the standard library from the export data one
// `go list -export` run reports for the listing's standard packages.
// It returns the root packages in Roots order.
func (m *Module) Load() ([]*Package, error) {
	ld := New(func(path string) (string, []string, bool, error) {
		p, ok := m.Packages[path]
		return p.Dir, p.GoFiles, ok, nil
	})
	if len(m.std) > 0 {
		if err := ld.addExports(m.dir, m.std...); err != nil {
			return nil, err
		}
	}
	pkgs := make([]*Package, 0, len(m.Roots))
	for _, r := range m.Roots {
		p, err := ld.Load(r)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
}

func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Export"}, args...)...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %w", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// SrcDir returns a GOPATH-style resolver: import path p maps to
// root/p, containing every non-test .go file in that directory. Used
// for analysistest fixture trees.
func SrcDir(root string) Resolver {
	return func(path string) (string, []string, bool, error) {
		dir := filepath.Join(root, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				return "", nil, false, nil
			}
			return "", nil, false, err
		}
		var files []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, name)
		}
		if len(files) == 0 {
			return "", nil, false, nil
		}
		sort.Strings(files)
		return dir, files, true, nil
	}
}

// ModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		dir = parent
	}
}
