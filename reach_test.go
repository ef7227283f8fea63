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
	"testing"
)

// kernelLayer is the ten operator and container packages that must hold
// nothing a statement, a figure or another package's test does not execute.
var kernelLayer = []string{"ar", "bulk", "bat", "bitpack", "bwd", "stats", "shard", "fixed", "mem", "par"}

// reachAllowed names what stays for good although nothing reaches it, each
// with its reason. The test caps the list at 8 entries.
var reachAllowed = map[string]string{
	"bwd.F":                  "the paper's §IV-B relaxation table, the specification Relax's doc and tests are written against",
	"bwd.Appr":               "§IV-B's appr(), the term F is defined in",
	"bwd.Column.RelaxOp":     "the per-operator entry to F; TestRelaxOpMatchesRelax pins Relax to it",
	"bwd.Column.Reconstruct": "the per-row +bw of Algorithm 2, the definition bwd's tests check Decompose against",
	"bitpack.Array.Set":      "the scalar writer Pack and the word-parallel kernels are checked against",
	"bitpack.Array.Equal":    "how bitpack's tests compare a kernel's output with the reference array",
}

// reachRetiring is what ISSUE 19 deletes together with the unit tests of
// its own package that are its only callers, named above each group. One
// change may retire only a few existing tests, so ROADMAP item 7(a) takes
// the groups a few at a time; nothing is added here.
var reachRetiring = []string{
	// ar: TestIntervalDivByZeroSpan, TestIntervalSqrt, TestIntervalPow, TestIsDestructive
	"ar.Interval.Div", "ar.Interval.Sqrt", "ar.isqrt", "ar.Interval.Pow", "ar.IsDestructive",
	// bat, the materialised-head, seqbase and sorted/key surface: TestNewDenseAt,
	// TestNewMaterialized*, TestMaterializeHead, TestSlice*, TestCheckSorted,
	// TestCloneIndependence, TestProject*
	"bat.NewDenseAt", "bat.NewMaterialized", "bat.BAT.HeadBytes", "bat.BAT.DenseHead", "bat.BAT.HSeq",
	"bat.BAT.Head", "bat.BAT.Heads", "bat.BAT.MaterializeHead", "bat.BAT.Slice", "bat.BAT.SetSorted",
	"bat.BAT.SetKey", "bat.BAT.Sorted", "bat.BAT.Key", "bat.BAT.CheckSorted", "bat.BAT.Clone", "bat.BAT.Project",
	// bitpack: TestAppendGrows, TestAppendPackedMatchesAppendLoop
	"bitpack.Array.Append", "bitpack.Array.AppendPacked",
	// bulk, all of arith.go: TestArithMaps
	"bulk.MapAdd", "bulk.MapSub", "bulk.MapMulScaled", "bulk.mapBin",
	// bulk: TestCombineSplitKeys, TestCombineSplitKeysNegative, TestCombineKeysRejectsBadDomain
	"bulk.CombineKeys", "bulk.SplitKey",
	// bulk: TestGlobalAggregates, TestGlobalAggregatesZeroAlloc, and the
	// Sum/Min/Max lines of the parallel-equivalence tests
	"bulk.Sum", "bulk.Min", "bulk.Max", "bulk.extrema", "bulk.better", "bulk.charge",
	// bwd: TestChooseBits, TestValueToApprox
	"bwd.ChooseBits", "bwd.Column.ValueToApprox",
	// fixed: TestMulScaled
	"fixed.MulScaled",
	// shard: TestPartNameRoundTrip
	"shard.ParsePartName",
	// stats: TestStatsProvider
	"stats.Of", "stats.Provider.Table", "stats.Provider.Column", "stats.Provider.Distinct",
}

// TestKernelLayerIsReached builds the function reference graph of the
// module's non-test files and fails when a function or method declared in
// the kernel layer is reachable neither from a main under cmd/ or
// examples/, nor from what bench/*.go references, nor from a _test.go file
// of a different package (oracles and fixtures such as bulk.HashJoin),
// unless reachAllowed or reachRetiring names it. A method that satisfies an
// interface (fmt.Stringer, sort.Interface, …) counts as reached: it is
// called through the interface.
func TestKernelLayerIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	if len(reachAllowed) > 8 {
		t.Fatalf("allow-list has %d entries, the cap is 8", len(reachAllowed))
	}
	excused := map[string]bool{}
	for name := range reachAllowed {
		excused[name] = true
	}
	for _, name := range reachRetiring {
		excused[name] = true
	}
	g := newRefGraph()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if err := g.addDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	live := g.reach()

	var dead []string
	lines := 0
	for fn, decl := range g.decls {
		if !inKernelLayer(fn.Pkg().Path()) || live[fn] || excused[funcName(fn)] {
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
		t.Errorf("%d kernel-layer functions (%d lines with doc comments) are reached by no binary, benchmark or foreign test:\n%s",
			len(dead), lines, strings.Join(dead, "\n"))
	}
}

func inKernelLayer(pkgPath string) bool {
	for _, k := range kernelLayer {
		if pkgPath == "repro/internal/"+k {
			return true
		}
	}
	return false
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
// kernel-layer method that satisfies an interface declared by the module
// or by a package it imports.
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

func (g *refGraph) interfaceMethods() []*types.Func {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
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
			} else if inKernelLayer(p.Path()) {
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
