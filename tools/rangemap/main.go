// Command rangemap is the CI static check for nondeterministic map
// iteration in hot paths. Map iteration order in Go is deliberately
// randomized, so a `for range` over a map inside the timing kernel or
// the assignment loops is either a reproducibility bug (results change
// run to run) or at best an unordered walk that a reviewer must prove
// harmless. This tool type-checks the named packages and flags every
// range statement whose operand is a map type in non-test files.
//
// A finding is suppressed by annotating the range statement (same line
// or the line above) with a justification comment:
//
//	// rangemap:ok <why the order cannot matter>
//
// The reason is mandatory in spirit: the annotation exists so the
// proof of order-independence is written down next to the loop.
//
// Usage:
//
//	go run ./tools/rangemap internal/sta internal/dualvth internal/assign internal/core internal/partition \
//		internal/sim internal/power internal/netlist internal/engine internal/eco internal/place internal/cts \
//		internal/vgnd internal/route internal/parasitics internal/mcmm internal/flow
//
// Package arguments are directories relative to the module root (or
// "." for the root package). Exit status 1 when any unsuppressed map
// range is found, 2 on load errors.
package main

import (
	"flag"
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

const modulePath = "selectivemt"

const okMarker = "rangemap:ok"

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rangemap <package-dir>...\nexample: rangemap internal/sta internal/assign\n")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangemap: %v\n", err)
		os.Exit(2)
	}
	l := newLoader(root)
	var findings []string
	for _, arg := range flag.Args() {
		path := modulePath
		if clean := filepath.ToSlash(filepath.Clean(arg)); clean != "." {
			path = modulePath + "/" + clean
		}
		pkg, err := l.load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangemap: %s: %v\n", arg, err)
			os.Exit(2)
		}
		findings = append(findings, check(l.fset, pkg)...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rangemap: %d map iteration(s) in hot-path packages; make the walk ordered or annotate with // %s <reason>\n", len(findings), okMarker)
		os.Exit(1)
	}
}

// moduleRoot walks upward from the working directory to the directory
// holding go.mod, so the tool works from any subdirectory of the repo.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// loader type-checks module packages from source, chaining to the
// standard library's source importer for everything outside the
// module. No go/packages, no x/tools — the module has zero
// dependencies and this tool keeps it that way.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	root string
	pkgs map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		root: root,
		pkgs: map[string]*checkedPkg{},
	}
}

// Import satisfies types.Importer for the checker's dependency loads.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	cp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return cp.pkg, nil
}

func (l *loader) load(path string) (*checkedPkg, error) {
	if cp, ok := l.pkgs[path]; ok {
		return cp, cp.err
	}
	// Reserve the slot first so import cycles fail loudly instead of
	// recursing forever (the checker reports the cycle itself).
	cp := &checkedPkg{}
	l.pkgs[path] = cp

	dir := l.root
	if path != modulePath {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/")))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		cp.err = err
		return cp, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			cp.err = err
			return cp, err
		}
		cp.files = append(cp.files, f)
	}
	if len(cp.files) == 0 {
		cp.err = fmt.Errorf("no Go files in %s", dir)
		return cp, cp.err
	}
	cp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	cp.pkg, err = conf.Check(path, l.fset, cp.files, cp.info)
	if err != nil {
		cp.err = err
		return cp, err
	}
	return cp, nil
}

// check walks one type-checked package and reports every range over a
// map-typed operand that carries no rangemap:ok annotation.
func check(fset *token.FileSet, cp *checkedPkg) []string {
	var findings []string
	for _, f := range cp.files {
		// Lines that carry a rangemap:ok comment suppress a finding on
		// the same line or the line directly below (annotation above
		// the loop reads best for long headers).
		ok := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, okMarker) {
					line := fset.Position(c.Pos()).Line
					ok[line] = true
					ok[line+1] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, isRange := n.(*ast.RangeStmt)
			if !isRange {
				return true
			}
			tv, found := cp.info.Types[rs.X]
			if !found {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.For)
			if ok[pos.Line] {
				return true
			}
			rel := pos.Filename
			if wd, err := os.Getwd(); err == nil {
				if r, err := filepath.Rel(wd, pos.Filename); err == nil {
					rel = r
				}
			}
			findings = append(findings,
				fmt.Sprintf("%s:%d: range over %s iterates in random order", rel, pos.Line, types.TypeString(tv.Type, types.RelativeTo(cp.pkg))))
			return true
		})
	}
	return findings
}
