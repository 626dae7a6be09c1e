package lintkit

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
	"runtime"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	// Path is the plain import path ("repro/internal/serve"), also for
	// the test variant; an external test package is "<path>_test".
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the cross-package fact set shared by every package in
	// one Load: the summaries of all non-standard packages in the build
	// graph (targets and in-module dependencies alike).
	Facts *FactSet
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load resolves patterns with `go list -export -deps -test` run in dir
// and type-checks every non-standard package in the build graph once
// from source: its test variant (the package plus its in-package
// _test.go files) when it has one, the plain package otherwise, and an
// external _test package on its own. Imports resolve through the
// compiler export data the go command reports, so loading is exact,
// offline, and as fast as a regular build. Each package's
// facts (facts.go) are summarized into one FactSet shared by every
// returned package; the packages the patterns matched (not their
// dependencies) are returned for analysis. A package that fails to
// type-check fails the load.
func Load(dir string, patterns ...string) ([]*LoadedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,ForTest,ImportMap,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintkit: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	exports := make(map[string]string)
	units := make(map[string]*listPackage) // by plain import path
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lintkit: decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lintkit: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Test variants list as "path [for.test]"; units go by plain path.
		path, _, _ := strings.Cut(p.ImportPath, " ")
		switch {
		case p.Standard || len(p.GoFiles) == 0:
			continue
		case p.ForTest == "" && strings.HasSuffix(path, ".test"):
			continue // the generated test main
		case p.ForTest != "" && path != p.ForTest && path != p.ForTest+"_test":
			continue // a dependency recompiled against a test variant; its plain listing is the unit
		}
		if units[path] == nil {
			order = append(order, path)
		}
		units[path] = p // the test variant lists after the plain package and replaces it
	}

	fset := token.NewFileSet()
	facts := NewFactSet()
	var loaded []*LoadedPackage
	for _, path := range order {
		p := units[path]
		lp, err := typeCheck(path, fset, sourceFiles(p), unitImporter(fset, p, exports))
		if err != nil {
			return nil, err
		}
		facts.Add(SummarizePackage(lp.Path, lp.Fset, lp.Files))
		lp.Facts = facts
		if !p.DepOnly {
			loaded = append(loaded, lp)
		}
	}
	return loaded, nil
}

// sourceFiles resolves a listed package's GoFiles against its directory.
func sourceFiles(p *listPackage) []string {
	files := make([]string, len(p.GoFiles))
	for i, f := range p.GoFiles {
		files[i] = joinDir(p.Dir, f)
	}
	return files
}

func joinDir(dir, file string) string {
	if dir == "" || strings.HasPrefix(file, "/") || strings.HasPrefix(file, "\\") {
		return file
	}
	return dir + string(os.PathSeparator) + file
}

// unitImporter builds the types.Importer for one listed package: an
// import path resolves, through the unit's ImportMap, to the compiler
// export data file `go list` reported for it. One importer per unit,
// because the gc importer keys packages by import path and an external
// test package must see its package's test variant (and dependencies
// recompiled against it) under the paths another unit resolves to the
// plain packages. Mapping inside the lookup keeps every types.Package
// under its source import path, so analyzers never see a variant path.
func unitImporter(fset *token.FileSet, p *listPackage, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lintkit: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typeCheck parses and type-checks one package from its source files.
func typeCheck(path string, fset *token.FileSet, filenames []string, imp types.Importer) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lintkit: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer:  imp,
		GoVersion: langVersion(runtime.Version()),
		// Analyzers only need a well-typed view of the code that exists;
		// soft errors (e.g. unused variables in fixtures) must not block
		// analysis.
		Error: func(error) {},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lintkit: typecheck %s: %w", path, err)
	}
	return &LoadedPackage{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// langVersion normalizes a toolchain version ("go1.24.0", "devel ...")
// to the "go1.N" language version go/types accepts, or "" when it
// cannot tell (meaning "latest").
func langVersion(v string) string {
	if !strings.HasPrefix(v, "go1.") {
		return ""
	}
	rest := v[len("go1."):]
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			rest = rest[:i]
			break
		}
	}
	if rest == "" {
		return ""
	}
	return "go1." + rest
}
