package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testSeams are exports that only tests call, kept on purpose. Each entry
// names the export as the check reports it, with the reason it stays.
var testSeams = map[string]string{
	// The one way for a test to reach a family graph inside a running
	// analysis (rockd's panic containment, arborescence's certificate
	// check on every family core builds).
	"core.SetFamilyHook": "family-graph test seam",
}

// testSettings are fields that only tests set, kept on purpose. Each
// entry names the field as the check reports it, with the reason it
// stays.
var testSettings = map[string]string{
	// The compiler lowers branches, loops, non-virtual calls and
	// assignments, but no generator emits them yet; the control-flow
	// programs of ROADMAP item 13 will.
	"cpp.Assign.Dst":    "statement kept for control-flow programs",
	"cpp.Assign.Src":    "statement kept for control-flow programs",
	"cpp.If.Else":       "statement kept for control-flow programs",
	"cpp.If.Then":       "statement kept for control-flow programs",
	"cpp.Loop.Body":     "statement kept for control-flow programs",
	"cpp.NVCall.Args":   "statement kept for control-flow programs",
	"cpp.NVCall.Class":  "statement kept for control-flow programs",
	"cpp.NVCall.Method": "statement kept for control-flow programs",
	"cpp.NVCall.Obj":    "statement kept for control-flow programs",
}

// paperData are fields that non-test code writes but never reads, kept
// on purpose. Each entry names the field as the check reports it, with
// the reason it stays.
var paperData = map[string]string{
	// Table 2 of the paper, transcribed with each benchmark: the size
	// and type count describe the original binaries, and the notes the
	// paper's remarks on them.
	"bench.Benchmark.Notes": "paper reference data",
	"bench.PaperRow.SizeKB": "paper reference data",
	"bench.PaperRow.Types":  "paper reference data",
}

// repoLeastCode is the least-code report of this tree, computed once for
// the tests that read it. Callers are the root module (examples
// included) and the cmd/rockperf module, which resolves repro to this
// tree.
var repoLeastCode = sync.OnceValues(func() (*leastCode, error) {
	return checkLeastCode(".", "repro")
})

// TestNoTestOnlyExports fails when an exported identifier of an internal
// package has no reference outside _test.go files: code whose only
// consumers are its own tests is deleted, or moved into a test file.
func TestNoTestOnlyExports(t *testing.T) {
	lc, err := repoLeastCode()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, lc.exports, testSeams,
		"is exported but referenced only from _test.go files: delete it, move it into a test file, or unexport it",
		"has a non-test caller now: drop it from testSeams")
}

// TestNoTestOnlyUnexported fails when an unexported package-level
// identifier or method has no reference outside _test.go files.
func TestNoTestOnlyUnexported(t *testing.T) {
	lc, err := repoLeastCode()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, lc.unexported, nil,
		"is referenced only from _test.go files, if at all: delete it or move it into a test file", "")
}

// TestNoTestOnlySettings fails when non-test code reads an exported field
// of an internal struct type that only tests set: the setting is deleted,
// with the branch that reads it.
func TestNoTestOnlySettings(t *testing.T) {
	lc, err := repoLeastCode()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, lc.settings, testSettings,
		"is read but set only by tests, if at all: delete it and the code that reads it",
		"is set outside tests now: drop it from testSettings")
}

// TestNoWriteOnlyFields fails when non-test code writes an exported
// field of an internal struct type but never reads it: a result nothing
// consumes is deleted, with the code that computes it.
func TestNoWriteOnlyFields(t *testing.T) {
	lc, err := repoLeastCode()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, lc.writeOnly, paperData,
		"is written but never read outside tests: delete it and the code that computes it",
		"is read outside tests now: drop it from paperData")
}

// checkAllowlist reports every found name that allow lacks, and every
// allow entry the check no longer finds.
func checkAllowlist(t *testing.T, found []string, allow map[string]string, foundMsg, staleMsg string) {
	t.Helper()
	for _, name := range found {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s %s", name, foundMsg)
		}
	}
	for name := range allow {
		if !slices.Contains(found, name) {
			t.Errorf("allowlisted %s %s", name, staleMsg)
		}
	}
}

// TestNoTestOnlyExportsFixture runs the export rule on a small tree with
// three exports: one only a test calls, a method that only satisfies
// fmt.Stringer, and one with a non-test caller. Only the first is reported.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	lc := fixtureLeastCode(t)
	if want := []string{"lib.OnlyTested"}; !reflect.DeepEqual(lc.exports, want) {
		t.Fatalf("check reported %q, want %q", lc.exports, want)
	}
}

// TestNoTestOnlyUnexportedFixture runs the unexported rule on the fixture:
// a function and a method only a test calls, and a constant no one names,
// are reported; a marker method that satisfies an interface, an iota
// block's zero value, and identifiers with non-test callers are not.
func TestNoTestOnlyUnexportedFixture(t *testing.T) {
	lc := fixtureLeastCode(t)
	want := []string{"lib.counter.reset", "lib.onlyTested", "lib.unusedLimit"}
	if !reflect.DeepEqual(lc.unexported, want) {
		t.Fatalf("check reported %q, want %q", lc.unexported, want)
	}
}

// TestNoTestOnlySettingsFixture runs the settings rule on the fixture: a
// field only a test sets is reported. Fields written by an assignment, a
// composite literal, an increment, taking the address, a pointer-method
// call, or through a sub-field are not, and neither is a field with a
// json tag or one nothing reads.
func TestNoTestOnlySettingsFixture(t *testing.T) {
	lc := fixtureLeastCode(t)
	if want := []string{"lib.Options.OnlyTestSet"}; !reflect.DeepEqual(lc.settings, want) {
		t.Fatalf("check reported %q, want %q", lc.settings, want)
	}
}

// TestNoWriteOnlyFieldsFixture runs the write-only rule on the fixture:
// a field only assigned, and one that only a test reads, are reported. A
// field read back, one updated by an operator assignment, one whose
// address is taken, one written through a sub-field and one with a json
// tag are not.
func TestNoWriteOnlyFieldsFixture(t *testing.T) {
	lc := fixtureLeastCode(t)
	if want := []string{"lib.Outcome.OnlyTestRead", "lib.Outcome.Stored"}; !reflect.DeepEqual(lc.writeOnly, want) {
		t.Fatalf("check reported %q, want %q", lc.writeOnly, want)
	}
}

func fixtureLeastCode(t *testing.T) *leastCode {
	t.Helper()
	lc, err := checkLeastCode("testdata/testonly", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

// leastCode is what the least-code rules find in one tree, each list
// sorted.
type leastCode struct {
	// exports are the exported package-level identifiers and methods of
	// the internal packages that no non-test file references, as
	// "pkg.Name" or "pkg.Type.Method".
	exports []string
	// unexported are the unexported package-level identifiers and
	// methods, of any package, that no non-test file references. A main
	// package is named by its directory ("cmd/rock.helper").
	unexported []string
	// settings are the exported fields of internal struct types that
	// non-test code reads but never writes, as "pkg.Type.Field". A field
	// with a json tag is exempt: decoding writes it.
	settings []string
	// writeOnly are the exported fields of internal struct types that
	// non-test code writes but never reads, as "pkg.Type.Field". A field
	// with a json tag is exempt: encoding reads it.
	writeOnly []string
}

// checkLeastCode type-checks the non-test Go files of every package under
// root, whose import paths are module plus the directory, and applies the
// least-code rules. A method that satisfies an interface is exempt from
// both reference rules: it is called through the interface. So is an
// iota block's zero value, which names the unset state. A reference
// inside an identifier's own declaration does not count.
func checkLeastCode(root, module string) (*leastCode, error) {
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		dirs[importPath] = path
		return nil
	})
	if err != nil {
		return nil, err
	}

	l := &loader{
		fset: token.NewFileSet(),
		dirs: dirs,
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		extent:   map[types.Object][2]token.Pos{},
		iotaZero: map[types.Object]bool{},
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if ext, ok := l.extent[obj]; ok && ext[0] <= id.Pos() && id.Pos() < ext[1] {
			continue
		}
		used[obj] = true
	}
	ifaces := l.interfaces()
	reads, writes := l.fieldAccess()

	lc := &leastCode{}
	for _, p := range paths {
		pkg := l.pkgs[p]
		if pkg == nil {
			continue
		}
		internal := slices.Contains(strings.Split(p, "/"), "internal")
		label := pkg.Name()
		if label == "main" {
			label = strings.TrimPrefix(p, module+"/")
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch {
			case !used[obj] && obj.Exported() && internal:
				lc.exports = append(lc.exports, label+"."+name)
			case !used[obj] && !obj.Exported() && !l.iotaZero[obj] && !entryPoint(obj):
				lc.unexported = append(lc.unexported, label+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if used[m] || satisfies(named, m.Name(), ifaces) {
					continue
				}
				switch {
				case m.Exported() && obj.Exported() && internal:
					lc.exports = append(lc.exports, label+"."+name+"."+m.Name())
				case !m.Exported():
					lc.unexported = append(lc.unexported, label+"."+name+"."+m.Name())
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !internal {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || reflect.StructTag(st.Tag(i)).Get("json") != "" {
					continue
				}
				switch {
				case reads[f] && !writes[f]:
					lc.settings = append(lc.settings, label+"."+name+"."+f.Name())
				case writes[f] && !reads[f]:
					lc.writeOnly = append(lc.writeOnly, label+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(lc.exports)
	sort.Strings(lc.unexported)
	sort.Strings(lc.settings)
	sort.Strings(lc.writeOnly)
	return lc, nil
}

// entryPoint reports whether obj is a function the runtime calls: init,
// or main in a main package.
func entryPoint(obj types.Object) bool {
	if _, ok := obj.(*types.Func); !ok {
		return false
	}
	return obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main"
}

// satisfies reports whether T or *T implements an interface that has a
// method called name.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// loader type-checks the packages under one root from source, without
// their test files. The standard library comes from the go command's
// export data (importer.Default), which the build cache already holds;
// type-checking it from source would cost seconds more, and many more
// under the race detector.
type loader struct {
	fset     *token.FileSet
	dirs     map[string]string
	std      types.Importer
	pkgs     map[string]*types.Package
	files    []*ast.File
	info     *types.Info
	extent   map[types.Object][2]token.Pos // function -> its declaration
	iotaZero map[types.Object]bool         // zero constants of iota blocks
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	l.pkgs[path] = nil
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if obj := l.info.Defs[d.Name]; obj != nil {
					l.extent[obj] = [2]token.Pos{d.Pos(), d.End()}
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST && mentionsIota(d) {
					for _, spec := range d.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if c, ok := l.info.Defs[id].(*types.Const); ok && constant.Sign(c.Val()) == 0 {
								l.iotaZero[c] = true
							}
						}
					}
				}
			}
		}
	}
	l.files = append(l.files, files...)
	l.pkgs[path] = pkg
	return pkg, nil
}

// mentionsIota reports whether a const block uses iota.
func mentionsIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// fieldAccess returns the struct fields the loaded non-test files read
// and write. A read is naming the field in a selector anywhere but as the
// target of a plain assignment (= or a range clause's =). A write is an
// assignment, an increment, a composite-literal element, taking the
// field's address, or calling a pointer method on it; writing x.F.G,
// x.F[i] or *x.F writes x.F too.
func (l *loader) fieldAccess() (reads, writes map[*types.Var]bool) {
	reads, writes = map[*types.Var]bool{}, map[*types.Var]bool{}
	// fields returns the fields a field selection passes through,
	// promoted ones included.
	fields := func(sel *types.Selection) []*types.Var {
		var out []*types.Var
		t := sel.Recv()
		for _, i := range sel.Index() {
			st, ok := derefStruct(t)
			if !ok {
				break
			}
			f := st.Field(i)
			out = append(out, f.Origin())
			t = f.Type()
		}
		return out
	}
	var write func(ast.Expr)
	write = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			write(e.X)
		case *ast.StarExpr:
			write(e.X)
		case *ast.IndexExpr:
			write(e.X)
		case *ast.SelectorExpr:
			if sel := l.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				for _, f := range fields(sel) {
					writes[f] = true
				}
				write(e.X)
			}
		}
	}
	// stored are the selectors that are plain assignment targets: the
	// field they end in is written there, not read.
	stored := map[*ast.SelectorExpr]bool{}
	store := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			stored[sel] = true
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						store(lhs)
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					store(n.Key)
					store(n.Value)
				}
			}
			return true
		})
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel := l.info.Selections[n]
				if sel == nil {
					break
				}
				switch sel.Kind() {
				case types.FieldVal:
					path := fields(sel)
					if stored[n] {
						path = path[:len(path)-1]
					}
					for _, f := range path {
						reads[f] = true
					}
				case types.MethodVal:
					sig := sel.Obj().Type().(*types.Signature)
					if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
						if _, xptr := l.info.Types[n.X].Type.Underlying().(*types.Pointer); !xptr {
							write(n.X)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					write(n.Key)
					write(n.Value)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.CompositeLit:
				st, ok := derefStruct(l.info.Types[n].Type)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if f, ok := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							writes[f.Origin()] = true
						}
					} else {
						writes[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	return reads, writes
}

// derefStruct returns the struct type under t or under the type t points
// to.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// interfaces returns every non-generic named interface with methods that
// the loaded packages declare or import, error included, and every
// interface type the loaded files spell out in place (as in
// x.(interface{ close() })).
func (l *loader) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, tv := range l.info.Types {
		if iface, ok := tv.Type.(*types.Interface); ok && tv.IsType() && iface.IsMethodSet() && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}
	return out
}
