package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis. Test
// files (_test.go) are excluded: the invariants bslint enforces are about
// shipped behavior, and tests legitimately use wall clocks and discard
// errors while driving real sockets.
type Package struct {
	// Path is the import path, e.g. "dnsbackscatter/internal/cache".
	Path string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Fset maps AST positions back to file:line.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the expression-level type information checks consult.
	Info *types.Info
}

// Module locates a Go module on disk and loads its packages for analysis.
type Module struct {
	// Path is the module path declared in go.mod.
	Path string
	// Dir is the absolute module root.
	Dir string

	fset   *token.FileSet
	std    types.Importer      // stdlib / out-of-module importer
	source types.Importer      // fallback when export data is unavailable
	loaded map[string]*Package // memoized by import path
	failed map[string]error    // memoized load failures by import path
	active map[string]bool     // import-cycle guard
}

// LoadModule finds the module containing dir by walking up to the nearest
// go.mod and returns a loader for it.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := moduleRoot(abs)
	if root == "" {
		return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Module{
		Path:   modPath,
		Dir:    root,
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", nil),
		source: importer.ForCompiler(fset, "source", nil),
		loaded: map[string]*Package{},
		failed: map[string]error{},
		active: map[string]bool{},
	}, nil
}

// Packages loads every package matched by the patterns. Patterns follow
// the go tool's shape: "./..." loads the whole module, "./x/..." a
// subtree, and "./x" one directory. Directories named testdata, vendored
// trees, and hidden directories are skipped, as the go tool does.
func (m *Module) Packages(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		sub, recursive := strings.CutSuffix(pat, "/...")
		if sub == "." || sub == "" {
			sub = ""
		} else {
			sub = strings.TrimPrefix(sub, "./")
		}
		rootDir := filepath.Join(m.Dir, filepath.FromSlash(sub))
		if !recursive {
			if !hasGoFiles(rootDir) {
				return nil, fmt.Errorf("lint: no Go package matches %s", pat)
			}
			dirs[rootDir] = true
			continue
		}
		err := filepath.WalkDir(rootDir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != rootDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	// Load every matched package, collecting failures instead of
	// stopping at the first: a partially-broken module reports every
	// broken package, and the caller decides that any load error is
	// fatal (cmd/bslint always does — linting a subset silently would
	// let findings in the unloadable packages go unseen).
	var pkgs []*Package
	var loadErrs []error
	for _, dir := range sorted {
		if !hasGoFiles(dir) {
			continue
		}
		pkg, err := m.loadDir(dir)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 && len(loadErrs) == 0 {
		return nil, fmt.Errorf("lint: no Go packages matched %s", strings.Join(patterns, " "))
	}
	return pkgs, errors.Join(loadErrs...)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory inside the module to its import path.
func (m *Module) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return m.Path, nil
	}
	return m.Path + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir, memoized by import
// path so shared dependencies check once.
func (m *Module) loadDir(dir string) (*Package, error) {
	path, err := m.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := m.loaded[path]; ok {
		return pkg, nil
	}
	if err, ok := m.failed[path]; ok {
		return nil, err
	}
	if m.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	m.active[path] = true
	defer delete(m.active, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			err = fmt.Errorf("lint: %w", err)
			m.failed[path] = err
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: (*moduleImporter)(m)}
	tpkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		err = fmt.Errorf("lint: type-checking %s: %w", path, err)
		m.failed[path] = err
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: m.fset, Files: files, Types: tpkg, Info: info}
	m.loaded[path] = pkg
	return pkg, nil
}

// moduleImporter resolves imports during type-checking: packages inside
// the module are loaded from source recursively, everything else (the
// stdlib — the module has no external dependencies) comes from compiled
// export data, falling back to source type-checking if export data is
// missing.
type moduleImporter Module

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	m := (*Module)(im)
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
		pkg, err := m.loadDir(filepath.Join(m.Dir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	tpkg, err := m.std.Import(path)
	if err == nil {
		return tpkg, nil
	}
	return m.source.Import(path)
}
