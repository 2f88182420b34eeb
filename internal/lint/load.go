package lint

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

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists, parses and type-checks the packages matching patterns
// under dir. Only the matched packages are loaded from source; every
// dependency — standard library included — is imported from the
// compiler export data `go list -export` materializes in the build
// cache, so loading works offline with no modules beyond the stdlib.
// Test files are not loaded: the invariants guard production paths, and
// tests legitimately use wall clocks and ad-hoc RNG.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, exports, alias, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if resolved, ok := alias[path]; ok {
			path = resolved
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, lp := range pkgs {
		p, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// goList shells out to `go list -deps -export -json` and splits the
// result into root packages to analyze, an ImportPath -> export-data
// map covering every dependency, and the union of the packages'
// ImportMaps (vendored stdlib import renames).
func goList(dir string, patterns []string) (roots []listPkg, exports, alias map[string]string, err error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,DepOnly,ImportMap,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}

	exports = map[string]string{}
	alias = map[string]string{}
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, nil, fmt.Errorf("lint: go list output: %w", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		for from, to := range lp.ImportMap {
			alias[from] = to
		}
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, nil, nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		roots = append(roots, lp)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	return roots, exports, alias, nil
}

// typeCheck parses one listed package's files and type-checks them with
// the type, def and use information the analyzers read.
func typeCheck(fset *token.FileSet, imp types.Importer, lp listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	conf.Check(lp.ImportPath, fset, files, info) // errors arrive through conf.Error
	if len(typeErrs) > 0 {
		if n := len(typeErrs); n > 5 {
			typeErrs = append(typeErrs[:5], fmt.Sprintf("... and %d more", n-5))
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", lp.ImportPath, strings.Join(typeErrs, "\n\t"))
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Fset:    fset,
		Files:   files,
		Info:    info,
	}, nil
}
