// Package bench defines the 19 evaluation benchmarks of Table 2. The paper
// evaluates Rock on 19 stripped 32-bit MSVC binaries built from open-source
// projects; those binaries are not available here, so each benchmark is a
// synthetic program (internal/cpp) with the same name, type count, and —
// crucially — the same *structural phenomena* that produced the paper's
// per-benchmark error pattern: retained or inlined constructor cues,
// optimized-out abstract parents, subtrees whose roots override everything
// (family splits), identical-code folding that merges unrelated families,
// and structurally equivalent types that only behavioral analysis can
// order. Each benchmark records the paper's Table 2 numbers for
// side-by-side reporting; EXPERIMENTS.md discusses paper-vs-measured.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/cpp"
	"repro/internal/image"
)

// PaperRow holds a benchmark's Table 2 reference values.
type PaperRow struct {
	SizeKB         float64
	Types          int
	WithoutMissing float64
	WithoutAdded   float64
	WithMissing    float64
	WithAdded      float64
}

// Benchmark couples a synthetic program with its compile options and the
// paper's reference numbers.
type Benchmark struct {
	// Name matches the Table 2 row.
	Name string
	// Resolvable places the benchmark above the line in Table 2 (the
	// structural analysis alone pins down a single hierarchy).
	Resolvable bool
	// Paper holds the reference numbers from Table 2.
	Paper PaperRow
	// Program builds the source model.
	Program func() *cpp.Program
	// Options are the compile options (which optimizations the original
	// binary exhibited).
	Options compiler.Options
	// Counted optionally restricts the evaluated type universe to these
	// class names; types outside it model the paper's filtered
	// compiler-generated / single-type-hierarchy classes. Empty means all
	// emitted primary types.
	Counted []string
	// Notes summarizes the engineered phenomenon.
	Notes string
}

// Build compiles the benchmark, returning the stripped image (the analysis
// input) and the ground-truth metadata.
func (b *Benchmark) Build() (*image.Image, *image.Metadata, error) {
	img, err := compiler.Compile(b.Program(), b.Options)
	if err != nil {
		return nil, nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	return img.Strip(), img.Meta, nil
}

var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, b) }

// All returns the benchmarks in Table 2 order (structurally resolvable
// first, then the unresolvable nine).
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Resolvable != out[j].Resolvable {
			return out[i].Resolvable
		}
		return tableOrder(out[i].Name) < tableOrder(out[j].Name)
	})
	return out
}

// tableOrder gives the row position within each half of Table 2.
func tableOrder(name string) int {
	order := []string{
		"AntispyComplete", "bafprp", "cppcheck", "MidiLib", "patl",
		"pop3", "smtp", "tinyxml", "tinyxmlSTL", "yafe",
		"Analyzer", "CGridListCtrlEx", "echoparams", "gperf", "libctemplate",
		"ShowTraf", "Smoothing", "td_unittest", "tinyserver",
	}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// ByName returns the named benchmark or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Builder DSL ------------------------------------------------------------------

// builder assembles a cpp.Program with per-class usage idioms. A class's
// idiom is the sequence of virtual calls to the methods it introduces plus
// its field writes and a call to a per-class helper function; a usage
// function for class C performs the idioms of C's whole ancestor chain
// (root first) and repeats C's own idiom, giving the graded behavioral
// containment the paper's Hypothesis 4.1 relies on.
type builder struct {
	p *cpp.Program
	// newMethods records the virtual methods introduced (not overridden) by
	// each class, in declaration order.
	newMethods map[string][]string
	// newFields records fields declared by each class.
	newFields map[string][]string
	// helpers tracks created helper functions.
	helpers map[string]bool
	useN    int
}

func newBuilder(name string) *builder {
	return &builder{
		p:          &cpp.Program{Name: name},
		newMethods: map[string][]string{},
		newFields:  map[string][]string{},
		helpers:    map[string]bool{},
	}
}

// seed returns a stable distinctive value for a symbol name, used to keep
// auto-generated method and helper bodies from folding under ICF.
func seed(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// class declares a class. methods are NEW virtual methods introduced here;
// each gets a distinctive (non-foldable) body.
func (b *builder) class(name, parent string, methods ...string) *cpp.Class {
	c := &cpp.Class{Name: name}
	if parent != "" {
		c.Bases = []string{parent}
	}
	for _, m := range methods {
		c.Methods = append(c.Methods, &cpp.Method{
			Name: m, Virtual: true,
			Body: []cpp.Stmt{cpp.Opaque{Seed: seed(name + "::" + m)}},
		})
		b.newMethods[name] = append(b.newMethods[name], m)
	}
	b.p.Classes = append(b.p.Classes, c)
	return c
}

// pureClass declares a class whose listed new methods are pure virtual.
func (b *builder) pureClass(name, parent string, methods ...string) *cpp.Class {
	c := &cpp.Class{Name: name}
	if parent != "" {
		c.Bases = []string{parent}
	}
	for _, m := range methods {
		c.Methods = append(c.Methods, &cpp.Method{Name: m, Virtual: true, Pure: true})
		b.newMethods[name] = append(b.newMethods[name], m)
	}
	b.p.Classes = append(b.p.Classes, c)
	return c
}

// override adds overriding implementations of inherited methods to class
// name, each with a distinctive body.
func (b *builder) override(name string, methods ...string) {
	c := b.p.Class(name)
	for _, m := range methods {
		c.Methods = append(c.Methods, &cpp.Method{
			Name: m, Virtual: true,
			Body: []cpp.Stmt{cpp.Opaque{Seed: seed(name + "::" + m)}},
		})
	}
}

// reabstract overrides an inherited concrete method with a pure-virtual
// redeclaration (legal, if rare, C++: the derived class withdraws the
// implementation), giving the class a purecall slot where ancestors have a
// concrete pointer.
func (b *builder) reabstract(name string, methods ...string) {
	c := b.p.Class(name)
	for _, m := range methods {
		c.Methods = append(c.Methods, &cpp.Method{Name: m, Virtual: true, Pure: true})
	}
}

// addMethods appends NEW virtual methods (recorded as introduced by name,
// with distinctive bodies) — unlike override, which replaces inherited
// slots.
func (b *builder) addMethods(name string, methods ...string) {
	c := b.p.Class(name)
	for _, m := range methods {
		c.Methods = append(c.Methods, &cpp.Method{
			Name: m, Virtual: true,
			Body: []cpp.Stmt{cpp.Opaque{Seed: seed(name + "::" + m)}},
		})
		b.newMethods[name] = append(b.newMethods[name], m)
	}
}

// pureMethods adds NEW pure virtual methods to class name (recorded as
// introduced there: usage idioms still dispatch through their slots).
func (b *builder) pureMethods(name string, methods ...string) {
	c := b.p.Class(name)
	for _, m := range methods {
		c.Methods = append(c.Methods, &cpp.Method{Name: m, Virtual: true, Pure: true})
		b.newMethods[name] = append(b.newMethods[name], m)
	}
}

// field declares a data member on class name.
func (b *builder) field(name string, fields ...string) {
	c := b.p.Class(name)
	for _, f := range fields {
		c.Fields = append(c.Fields, cpp.Field{Name: f})
		b.newFields[name] = append(b.newFields[name], f)
	}
}

// getter adds a virtual method to class name whose body reads the given
// field — the identical-code-folding bait: two getters reading the same
// offset compile to byte-identical functions.
func (b *builder) getter(name, method, fld string) {
	c := b.p.Class(name)
	c.Methods = append(c.Methods, &cpp.Method{
		Name:    method,
		Virtual: true,
		Body:    []cpp.Stmt{cpp.ReadField{Obj: "this", Field: fld}},
	})
	b.newMethods[name] = append(b.newMethods[name], method)
}

// helper ensures a per-class helper free function exists and returns its
// name. Calls to it give each class a distinctive call(f) event.
func (b *builder) helper(class string) string {
	hname := "process_" + class
	if !b.helpers[hname] {
		b.helpers[hname] = true
		b.p.Funcs = append(b.p.Funcs, &cpp.Func{
			Name:   hname,
			Params: []cpp.Param{{Name: "o", Class: class}},
			Body:   []cpp.Stmt{cpp.Opaque{Seed: seed(hname)}, cpp.Return{}},
		})
	}
	return hname
}

// chain returns the primary ancestor chain of class name, root first,
// ending with name itself.
func (b *builder) chain(name string) []string {
	var rev []string
	for n := name; n != ""; {
		rev = append(rev, n)
		c := b.p.Class(n)
		if c == nil {
			break
		}
		n = c.PrimaryBase()
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// idiomOf returns the statements of one level's idiom applied to object
// obj: virtual calls to the level's introduced methods, writes to its
// fields, and a helper call.
func (b *builder) idiomOf(level, obj string) []cpp.Stmt {
	var out []cpp.Stmt
	for _, m := range b.newMethods[level] {
		out = append(out, cpp.VCall{Obj: obj, Method: m})
	}
	for _, f := range b.newFields[level] {
		out = append(out, cpp.WriteField{Obj: obj, Field: f})
	}
	out = append(out, cpp.CallFunc{Name: b.helper(level), Args: []cpp.Arg{cpp.ObjArg(obj)}})
	return out
}

// use adds a usage function for class name: it allocates an instance and
// performs the idiom of every ancestor (root first), each repeated reps
// times consecutively, ending with the class's own idiom. Consecutive
// repetition matters: it makes every windowed tracelet of an ancestor's
// usage (including its repetition patterns) appear in the descendant's
// training set, which is the containment that Hypothesis 4.1 relies on.
func (b *builder) use(name string, reps int) {
	body := []cpp.Stmt{cpp.New{Dst: "o", Class: name}}
	for _, level := range b.chain(name) {
		for r := 0; r < reps; r++ {
			body = append(body, b.idiomOf(level, "o")...)
		}
	}
	b.useN++
	b.p.Funcs = append(b.p.Funcs, &cpp.Func{
		Name: fmt.Sprintf("use_%s_%d", name, b.useN),
		Body: body,
	})
}

// useAs adds a usage function for class name that performs the idioms of
// the listed classes (in order) on a fresh instance — used to make one
// type's behavior deliberately resemble another's.
func (b *builder) useAs(name string, reps int, idiomClasses ...string) {
	body := []cpp.Stmt{cpp.New{Dst: "o", Class: name}}
	for _, level := range idiomClasses {
		for r := 0; r < reps; r++ {
			for _, m := range b.newMethods[level] {
				// Only call methods actually visible on name.
				if b.p.Class(name) != nil && b.resolvable(name, m) {
					body = append(body, cpp.VCall{Obj: "o", Method: m})
				}
			}
			for _, f := range b.newFields[level] {
				if b.hasField(name, f) {
					body = append(body, cpp.WriteField{Obj: "o", Field: f})
				}
			}
			body = append(body, cpp.CallFunc{Name: b.helper(level), Args: []cpp.Arg{cpp.ObjArg("o")}})
		}
	}
	b.useN++
	b.p.Funcs = append(b.p.Funcs, &cpp.Func{
		Name: fmt.Sprintf("use_%s_%d", name, b.useN),
		Body: body,
	})
}

// useVariant adds a usage function for class name consisting of base's
// idiom plus a call to one helper SHARED by every variant of the group:
// the variants' behaviors are mutually indistinguishable (their SLMs tie)
// while still being distinguishable from base's own behavior.
func (b *builder) useVariant(name string, reps int, base, group string) {
	hname := "process_" + group
	if !b.helpers[hname] {
		b.helpers[hname] = true
		b.p.Funcs = append(b.p.Funcs, &cpp.Func{
			Name:   hname,
			Params: []cpp.Param{{Name: "o", Class: base}},
			Body:   []cpp.Stmt{cpp.Opaque{Seed: seed(hname)}, cpp.Return{}},
		})
	}
	body := []cpp.Stmt{cpp.New{Dst: "o", Class: name}}
	for r := 0; r < reps; r++ {
		body = append(body, b.idiomOf(base, "o")...)
		body = append(body, cpp.CallFunc{Name: hname, Args: []cpp.Arg{cpp.ObjArg("o")}})
	}
	b.useN++
	b.p.Funcs = append(b.p.Funcs, &cpp.Func{
		Name: fmt.Sprintf("use_%s_%d", name, b.useN),
		Body: body,
	})
}

// slotOf returns the vtable slot index of a method introduced along cls's
// primary chain (slot 0 is the implicit destructor). It assumes the
// benchmark's classes only append new virtuals (overrides replace in
// place), which holds for every builder-made program.
func (b *builder) slotOf(cls, method string) int {
	i := 1
	for _, level := range b.chain(cls) {
		for _, m := range b.newMethods[level] {
			if m == method {
				return i
			}
			i++
		}
	}
	return -1
}

// methodAtSlot returns cls's method occupying the given slot index, or "".
func (b *builder) methodAtSlot(cls string, slot int) string {
	i := 1
	for _, level := range b.chain(cls) {
		for _, m := range b.newMethods[level] {
			if i == slot {
				return m
			}
			i++
		}
	}
	return ""
}

// offsetOf returns the byte offset of a field introduced along cls's chain.
func (b *builder) offsetOf(cls, field string) int {
	off := 8
	for _, level := range b.chain(cls) {
		for _, f := range b.newFields[level] {
			if f == field {
				return off
			}
			off += 8
		}
	}
	return -1
}

// fieldAtOffset returns cls's field at the given byte offset, or "".
func (b *builder) fieldAtOffset(cls string, off int) string {
	cur := 8
	for _, level := range b.chain(cls) {
		for _, f := range b.newFields[level] {
			if cur == off {
				return f
			}
			cur += 8
		}
	}
	return ""
}

// useMirror adds a usage function for class name that reproduces, on name's
// OWN slots and fields, the word shapes of the given ancestry chain of some
// other hierarchy: for each chain level (repeated reps times) it performs
// virtual calls through the slots matching the level's new methods, writes
// to name's field at the level's field offsets, and calls the level's
// helper. A single call to name's own helper closes the function, keeping
// name distinguishable. This makes D(chainBottom || name) minimal among
// name's candidates — the "behaves exactly like X" situation behind merged
// hierarchies being spliced at depth.
func (b *builder) useMirror(name string, reps int, chain ...string) {
	body := []cpp.Stmt{cpp.New{Dst: "o", Class: name}}
	for _, level := range chain {
		for r := 0; r < reps; r++ {
			for _, m := range b.newMethods[level] {
				slot := b.slotOf(level, m)
				if own := b.methodAtSlot(name, slot); own != "" {
					body = append(body, cpp.VCall{Obj: "o", Method: own})
				}
			}
			for _, f := range b.newFields[level] {
				off := b.offsetOf(level, f)
				if own := b.fieldAtOffset(name, off); own != "" {
					body = append(body, cpp.WriteField{Obj: "o", Field: own})
				}
			}
			body = append(body, cpp.CallFunc{Name: b.helper(level), Args: []cpp.Arg{cpp.ObjArg("o")}})
		}
	}
	body = append(body, cpp.CallFunc{Name: b.helper(name), Args: []cpp.Arg{cpp.ObjArg("o")}})
	b.useN++
	b.p.Funcs = append(b.p.Funcs, &cpp.Func{
		Name: fmt.Sprintf("use_%s_%d", name, b.useN),
		Body: body,
	})
}

func (b *builder) resolvable(cls, method string) bool {
	ch := b.chain(cls)
	for _, l := range ch {
		for _, m := range b.newMethods[l] {
			if m == method {
				return true
			}
		}
	}
	return false
}

func (b *builder) hasField(cls, fld string) bool {
	ch := b.chain(cls)
	for _, l := range ch {
		for _, f := range b.newFields[l] {
			if f == fld {
				return true
			}
		}
	}
	return false
}

// useAll adds a default usage function for every concrete class (reps
// repetitions each).
func (b *builder) useAll(reps int) { b.useAllExcept(reps) }

// useAllExcept is useAll with exclusions (classes whose usage is
// hand-crafted elsewhere).
func (b *builder) useAllExcept(reps int, except ...string) {
	skip := map[string]bool{}
	for _, e := range except {
		skip[e] = true
	}
	for _, c := range b.p.Classes {
		if !b.p.IsAbstract(c.Name) && !skip[c.Name] {
			b.use(c.Name, reps)
		}
	}
}

// cueOptions are the above-the-line compile options: constructor calls to
// parents are preserved, so structural rule 3 resolves hierarchies.
func cueOptions() compiler.Options {
	return compiler.Options{
		InlineCtorAtNew: true,
		EmitDtors:       true,
	}
}

// optOptions are the below-the-line compile options: the fully optimized
// build with every structural parent cue removed.
func optOptions() compiler.Options {
	return compiler.DefaultOptions()
}
