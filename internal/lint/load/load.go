// Package load is the package loader of the soter-vet analysis driver: a
// minimal, offline replacement for golang.org/x/tools/go/packages built on
// two pieces the toolchain already provides — `go list -export` for build
// metadata and compiled export data, and go/importer's gc importer for
// reading that export data back as *types.Package.
//
// The loader shells out to `go list` exactly once, parses and type-checks
// only the packages of this module from source (analyzers need syntax and
// positions for them), and resolves every import — stdlib or module-internal
// — through the export data the build cache already holds. Test files are
// not loaded: every soter-vet analyzer checks non-test code only.
package load

import (
	"encoding/json"
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

// Package is one type-checked package, ready for analysis.
type Package struct {
	// ImportPath is the path as `go list` reports it.
	ImportPath string
	// Name is the package name.
	Name string
	// Dir is the package's source directory.
	Dir string
	// Files are the absolute paths of the parsed files, in build order.
	Files []string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Syntax holds one parsed file per entry of Files.
	Syntax []*ast.File
	// Types and Info carry the full type-checking results.
	Types *types.Package
	Info  *types.Info
}

// Config controls a Load call.
type Config struct {
	// Dir is the working directory for `go list`; empty means the current
	// directory. Patterns are resolved relative to it.
	Dir string
	// Patterns are `go list` package patterns; empty means ["./..."].
	Patterns []string
}

// listPackage mirrors the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *listError
	DepsErrors []*listError
}

type listError struct {
	Pos string
	Err string
}

// Load lists, parses and type-checks the packages matched by cfg. Any list,
// parse or type error fails the whole load: soter-vet refuses to reason
// about a tree it cannot fully see.
func Load(cfg Config) ([]*Package, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,Error,DepsErrors"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}

	byPath := map[string]*listPackage{}
	var order []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		lp := p
		byPath[lp.ImportPath] = &lp
		order = append(order, &lp)
	}

	ld := &loader{
		fset:   token.NewFileSet(),
		byPath: byPath,
		memo:   map[string]*types.Package{},
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", ld.exportLookup)

	var pkgs []*Package
	for _, p := range order {
		if p.Standard || p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		for _, de := range p.DepsErrors {
			return nil, fmt.Errorf("%s: dependency error: %s", p.ImportPath, de.Err)
		}
		pkg, err := ld.fromSource(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// loader carries the shared state of one Load call.
type loader struct {
	fset   *token.FileSet
	byPath map[string]*listPackage
	memo   map[string]*types.Package // checked packages, by listed path
	gc     types.Importer
}

// exportLookup feeds the gc importer the export-data file `go list -export`
// recorded for the path.
func (ld *loader) exportLookup(path string) (io.ReadCloser, error) {
	p, ok := ld.byPath[path]
	if !ok || p.Export == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(p.Export)
}

// fromSource parses and type-checks the listed package. Later packages
// that import it see these types rather than its export data.
func (ld *loader) fromSource(p *listPackage) (*Package, error) {
	pkg := &Package{
		ImportPath: p.ImportPath,
		Name:       p.Name,
		Dir:        p.Dir,
		Fset:       ld.fset,
	}
	for _, f := range p.GoFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, f)
		}
		syn, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, path)
		pkg.Syntax = append(pkg.Syntax, syn)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(p.ImportPath, ld.fset, pkg.Syntax, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type errors: %v", p.ImportPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	ld.memo[p.ImportPath] = tpkg
	return pkg, nil
}

// Import implements types.Importer for the packages checked from source: a
// module package already checked from source resolves to those types,
// everything else to its compiled export data. Only standard-library
// packages carry a `go list` import map (for their vendored dependencies),
// and those are read from export data, whose references the gc importer
// resolves itself.
func (ld *loader) Import(path string) (*types.Package, error) {
	if tp, ok := ld.memo[path]; ok {
		return tp, nil
	}
	tp, err := ld.gc.Import(path)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	ld.memo[path] = tp
	return tp, nil
}
