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
	"reflect"
	"slices"
	"sort"
	"strings"
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

// TestNoTestOnlyExports fails when an exported identifier of an internal
// package has no reference outside _test.go files: code whose only
// consumers are its own tests is deleted, or moved into a test file.
// Callers are the root module (examples included) and the cmd/rockperf
// module, which resolves repro to this tree.
func TestNoTestOnlyExports(t *testing.T) {
	found, err := testOnlyExports(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range found {
		if _, ok := testSeams[name]; !ok {
			t.Errorf("%s is exported but referenced only from _test.go files: delete it, move it into a test file, or unexport it", name)
		}
	}
	for name := range testSeams {
		if !slices.Contains(found, name) {
			t.Errorf("allowlisted %s has a non-test caller now: drop it from testSeams", name)
		}
	}
}

// TestNoTestOnlyExportsFixture runs the check on a small tree with three
// exports: one only a test calls, a method that only satisfies
// fmt.Stringer, and one with a non-test caller. Only the first is reported.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	found, err := testOnlyExports("testdata/testonly", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.OnlyTested"}; !reflect.DeepEqual(found, want) {
		t.Fatalf("check reported %q, want %q", found, want)
	}
}

// testOnlyExports type-checks the non-test Go files of every package under
// root, whose import paths are module plus the directory, and returns the
// exported package-level identifiers and methods of the internal packages
// that no non-test file references, as "pkg.Name" or "pkg.Type.Method",
// sorted. A method that satisfies an interface is exempt: it is called
// through the interface. A reference inside an identifier's own
// declaration does not count.
func testOnlyExports(root, module string) ([]string, error) {
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
		fset:   token.NewFileSet(),
		dirs:   dirs,
		std:    importer.Default(),
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		extent: map[types.Object][2]token.Pos{},
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

	var found []string
	for _, p := range paths {
		pkg := l.pkgs[p]
		if pkg == nil || !slices.Contains(strings.Split(p, "/"), "internal") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				found = append(found, pkg.Name()+"."+name)
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
				if m.Exported() && !used[m] && !satisfies(named, m.Name(), ifaces) {
					found = append(found, pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(found)
	return found, nil
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
	fset   *token.FileSet
	dirs   map[string]string
	std    types.Importer
	pkgs   map[string]*types.Package
	info   *types.Info
	extent map[types.Object][2]token.Pos // function -> its declaration
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
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := l.info.Defs[fd.Name]; obj != nil {
					l.extent[obj] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// interfaces returns every non-generic named interface with methods that
// the loaded packages declare or import, error included.
func (l *loader) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
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
