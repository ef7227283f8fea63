package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowed names what stays for good although nothing reaches it, each
// with its reason. The test caps the list at 8 entries.
var reachAllowed = map[string]string{
	"bwd.F":               "the paper's §IV-B relaxation table, the specification Relax's doc and tests are written against",
	"bwd.Appr":            "§IV-B's appr(), the term F is defined in",
	"bwd.Column.RelaxOp":  "the per-operator entry to F; TestRelaxOpMatchesRelax pins Relax to it",
	"bitpack.Array.Set":   "the scalar writer Pack and the word-parallel kernels are checked against",
	"bitpack.Array.Equal": "how bitpack's tests compare a kernel's output with the reference array",
}

// TestModuleIsReached builds the function reference graph of the module's
// non-test files and fails when a function or method declared in it is
// reachable neither from a main under cmd/ or examples/, nor from what
// bench/*.go references, nor from a _test.go file of a different package
// (oracles and fixtures), unless reachAllowed names it. A method that
// satisfies an interface (fmt.Stringer, sort.Interface, the methods errors.Is,
// errors.As and errors.Unwrap look for, …) counts as reached: it is called
// through the interface.
func TestModuleIsReached(t *testing.T) {
	g := loadModule(t)
	if len(reachAllowed) > 8 {
		t.Fatalf("allow-list has %d entries, the cap is 8", len(reachAllowed))
	}
	excused := map[string]bool{}
	for name := range reachAllowed {
		excused[name] = true
	}
	live := g.reach()

	var dead []string
	lines := 0
	for fn, decl := range g.decls {
		if !inModule(fn.Pkg().Path()) || live[fn] || excused[funcName(fn)] {
			continue
		}
		start := decl.Pos()
		if decl.Doc != nil {
			start = decl.Doc.Pos()
		}
		n := g.fset.Position(decl.End()).Line - g.fset.Position(start).Line + 1
		lines += n
		pos := g.fset.Position(decl.Pos())
		dead = append(dead, fmt.Sprintf("%s:%d: %s (%d lines)", pos.Filename, pos.Line, funcName(fn), n))
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d functions (%d lines with doc comments) are reached by no binary, benchmark or foreign test:\n%s",
			len(dead), lines, strings.Join(dead, "\n"))
	}
}

// meterTakers is what in internal/{ar,bulk,plan} may take a *device.Meter
// besides a Charge… or charge… function: the walk's one bill, and the
// catalog's maintenance entry points, whose store operations (insert, delete,
// merge, decompose) bill as they run.
var meterTakers = map[string]bool{
	"plan.pipeline.bill":            true,
	"plan.Catalog.InsertRows":       true,
	"plan.Catalog.DeleteRows":       true,
	"plan.Catalog.MergeTable":       true,
	"plan.Catalog.DecomposeMetered": true,
}

// TestKernelsTakeNoMeter fails when a function or method declared in
// internal/{ar,bulk,plan} has a *device.Meter parameter and is neither named
// Charge… or charge… nor in meterTakers: kernels compute and charges bill, so
// a caller that bills nothing calls no charge and a kernel has no meter to
// guard (DESIGN.md §7).
func TestKernelsTakeNoMeter(t *testing.T) {
	g := loadModule(t)
	var metered []string
	for fn, decl := range g.decls {
		switch fn.Pkg().Path() {
		case "repro/internal/ar", "repro/internal/bulk", "repro/internal/plan":
		default:
			continue
		}
		name := funcName(fn)
		if !takesMeter(fn) || meterTakers[name] || strings.HasPrefix(fn.Name(), "Charge") || strings.HasPrefix(fn.Name(), "charge") {
			continue
		}
		pos := g.fset.Position(decl.Pos())
		metered = append(metered, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
	}
	if len(metered) > 0 {
		sort.Strings(metered)
		t.Errorf("%d functions take a *device.Meter without being a charge (bill it with a Charge… function of its counts instead):\n%s",
			len(metered), strings.Join(metered, "\n"))
	}
}

// takesMeter reports whether one of fn's parameters is a *device.Meter.
func takesMeter(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := range params.Len() {
		if p, ok := params.At(i).Type().(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok && n.Obj().Pkg().Path() == "repro/internal/device" && n.Obj().Name() == "Meter" {
				return true
			}
		}
	}
	return false
}

// module is the reference graph of the whole module, loaded once per test
// binary (loadModule) and shared by the tests that read it.
var module struct {
	once sync.Once
	g    *refGraph
	err  error
}

// loadModule returns the module's reference graph: every package and test
// file under the root but testdata and dot directories, type-checked with its
// standard-library imports from source. It skips the test under -short.
func loadModule(t *testing.T) *refGraph {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	module.once.Do(func() {
		g := newRefGraph()
		module.err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return g.addDir(path)
		})
		module.g = g
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.g
}

// inModule reports whether pkgPath is a package of this module; bench/ is a
// module of its own, every function of which is a root.
func inModule(pkgPath string) bool {
	return (pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/")) && pkgPath != "repro/bench"
}

// funcName is pkg.Func or pkg.Type.Method — the package path below
// repro/internal/, no pointer or type-parameter decoration.
func funcName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), "repro/internal/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// refGraph is the module's "mentions" relation over declared functions: an
// edge for every identifier in a function's body that resolves to another
// function, called or not.
type refGraph struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // non-test packages by import path
	decls map[*types.Func]*ast.FuncDecl
	edges map[*types.Func][]*types.Func
	roots []*types.Func
}

func newRefGraph() *refGraph {
	fset := token.NewFileSet()
	return &refGraph{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		decls: map[*types.Func]*ast.FuncDecl{},
		edges: map[*types.Func][]*types.Func{},
	}
}

// importPath maps a directory of this tree to its import path; bench/ is
// its own module, named repro/bench.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// Import resolves the module's own packages to the one instance this graph
// type-checked, so a function is the same object wherever it is mentioned.
func (g *refGraph) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return g.std.Import(path)
	}
	if p, ok := g.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(".", strings.TrimPrefix(path, "repro"))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	return g.check(path, dir, bp.GoFiles, nil)
}

// check type-checks files of dir as package path. record is called with the
// package's files and resolved identifiers; nil means "a non-test package":
// its functions are declared into the graph and it is memoised for Import.
func (g *refGraph) check(path, dir string, names []string, record func([]*ast.File, *types.Info)) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: g}).Check(path, g.fset, files, info)
	if err != nil {
		return nil, err
	}
	if record != nil {
		record(files, info)
		return pkg, nil
	}
	g.pkgs[path] = pkg
	g.declare(path, files, info)
	return pkg, nil
}

// declare adds a non-test package's functions, their outgoing references
// and its root references to the graph.
func (g *refGraph) declare(path string, files []*ast.File, info *types.Info) {
	isMain := files[0].Name.Name == "main"
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				// Package-level initialisers run whenever the package is linked.
				g.roots = append(g.roots, mentioned(d, info)...)
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			g.decls[fn] = fd
			if fd.Body != nil {
				g.edges[fn] = mentioned(fd.Body, info)
			}
			switch {
			case fd.Recv == nil && fn.Name() == "init":
				g.roots = append(g.roots, fn)
			case isMain && (fn.Name() == "main" || path == "repro/bench"):
				// Every function of bench/ is a root: the benchmark's use of
				// the program is read from its files, not listed here.
				g.roots = append(g.roots, fn)
			}
		}
	}
}

// mentioned lists the functions the identifiers under n resolve to; a
// method of an instantiated generic type resolves to its declaration.
func mentioned(n ast.Node, info *types.Info) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// addDir loads dir's package, then its test files: what a _test.go file
// mentions in a package other than its own is a root.
func (g *refGraph) addDir(dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	}
	path := importPath(dir)
	isMain := bp.Name == "main"
	if isMain && !(strings.HasPrefix(path, "repro/cmd/") || strings.HasPrefix(path, "repro/examples/") || path == "repro/bench") {
		return fmt.Errorf("%s: package main outside cmd/, examples/ and bench/", dir)
	}
	if len(bp.GoFiles) > 0 {
		if _, err := g.Import(path); err != nil {
			return err
		}
	}
	foreign := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			if !strings.HasSuffix(g.fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, fn := range mentioned(f, info) {
				if fn.Pkg().Path() != path {
					g.roots = append(g.roots, fn)
				}
			}
		}
	}
	if len(bp.TestGoFiles) > 0 {
		// In-package tests are checked together with the package; the
		// instance is private to this call, its references into other
		// packages resolve to the shared ones.
		if _, err := g.check(path, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), foreign); err != nil {
			return err
		}
	}
	if len(bp.XTestGoFiles) > 0 {
		if _, err := g.check(path+"_test", dir, bp.XTestGoFiles, foreign); err != nil {
			return err
		}
	}
	return nil
}

// reach marks everything the roots mention, transitively, plus every
// module method that satisfies an interface declared by the module or by a
// package it imports, or one of the errors package's (errorsIfaces).
func (g *refGraph) reach() map[*types.Func]bool {
	live := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if live[fn] {
			return
		}
		live[fn] = true
		for _, to := range g.edges[fn] {
			visit(to)
		}
	}
	for _, fn := range g.roots {
		visit(fn)
	}
	for _, fn := range g.interfaceMethods() {
		visit(fn)
	}
	return live
}

// errorsIfaces are the interfaces errors.Is, errors.As and errors.Unwrap
// assert an error to: the errors package declares them inside its functions,
// where no scope lists them.
func errorsIfaces() []*types.Interface {
	errT, anyT := types.Universe.Lookup("error").Type(), types.Universe.Lookup("any").Type()
	method := func(name string, param, result types.Type) *types.Func {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewFunc(token.NoPos, nil, name, sig)
	}
	out := []*types.Interface{
		types.NewInterfaceType([]*types.Func{method("Is", errT, types.Typ[types.Bool])}, nil),
		types.NewInterfaceType([]*types.Func{method("As", anyT, types.Typ[types.Bool])}, nil),
		types.NewInterfaceType([]*types.Func{method("Unwrap", nil, errT)}, nil),
	}
	for _, it := range out {
		it.Complete()
	}
	return out
}

func (g *refGraph) interfaceMethods() []*types.Func {
	ifaces := append(errorsIfaces(), types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok || nt.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := nt.Underlying().(*types.Interface); ok {
				if it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if inModule(p.Path()) {
				named = append(named, nt)
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, p := range g.pkgs {
		scan(p)
	}
	var out []*types.Func
	for _, nt := range named {
		ptr := types.NewPointer(nt)
		for _, it := range ifaces {
			if !types.Implements(nt, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, nt.Obj().Pkg(), it.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok && g.decls[fn] != nil {
					out = append(out, fn)
				}
			}
		}
	}
	return out
}
