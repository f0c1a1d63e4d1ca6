// Package cpp defines a small C++-like source model: classes with
// (possibly multiple) inheritance, virtual and non-virtual methods, fields,
// and free functions whose bodies are built from a handful of statement
// forms. The model is the input language of internal/compiler, which lowers
// it to a stripped binary image; it also carries the source class hierarchy
// that the evaluation uses to derive ground truth.
//
// The model is deliberately minimal: it contains exactly the constructs the
// paper's analysis can observe in a binary (virtual dispatch, field access,
// argument passing, returns, concrete calls) plus control flow (branches and
// loops) that exercises the path enumeration of the tracelet extractor.
package cpp

import (
	"fmt"
	"sort"
)

// Program is a complete source program: a set of classes and free functions.
type Program struct {
	// Name identifies the program (benchmark name, example name, ...).
	Name string
	// Classes in declaration order. Base classes must be declared before
	// derived classes.
	Classes []*Class
	// Funcs are free functions (the "useX" drivers of the paper's examples).
	Funcs []*Func
}

// Class declares a class with optional base classes.
type Class struct {
	// Name of the class. Unique within a Program.
	Name string
	// Bases lists base class names. Empty for a root class. The first entry
	// is the primary base (its subobject is laid out at offset 0, and its
	// vtable is extended in place); any further entries are secondary bases
	// (multiple inheritance) laid out after the primary part, each with its
	// own vtable pointer.
	Bases []string
	// Fields declared by this class itself (inherited fields are implicit).
	Fields []Field
	// Methods declared or overridden by this class itself.
	Methods []*Method
}

// Field is a data member. All fields occupy one 8-byte slot.
type Field struct {
	Name string
}

// Method is a member function. A method with Virtual set occupies a vtable
// slot; an override is detected by name against the base classes.
type Method struct {
	Name    string
	Virtual bool
	// Pure marks a pure virtual method (no body). A class with a pure
	// method that is never overridden along a branch cannot be instantiated.
	Pure bool
	// Body is the method body. The receiver is available as variable "this".
	Body []Stmt
}

// Func is a free function.
type Func struct {
	Name string
	// Params are the function parameters. Object parameters carry the static
	// class name; scalar parameters carry "".
	Params []Param
	Body   []Stmt
}

// Param is a function parameter.
type Param struct {
	Name string
	// Class is the static type for object (pointer) parameters, "" otherwise.
	Class string
}

// Stmt is a statement in a method or function body.
type Stmt interface {
	isStmt()
}

// New allocates an object of class Class and binds it to local variable Dst.
// Lowered to a call to the allocator import followed by the (usually
// inlined) constructor.
type New struct {
	Dst   string
	Class string
}

// VCall performs a virtual call Obj->Method(Args...). The vtable slot is
// resolved from Obj's static type.
type VCall struct {
	Obj    string
	Method string
	Args   []Arg
}

// NVCall performs a direct (non-virtual) method call Obj->Method(Args...).
type NVCall struct {
	Obj    string
	Method string
	// Class optionally qualifies the method (Class::Method); when empty, the
	// method is resolved against Obj's static type.
	Class string
	Args  []Arg
}

// CallFunc calls a free function.
type CallFunc struct {
	Name string
	Args []Arg
}

// ReadField reads Obj->Field into an anonymous temporary.
type ReadField struct {
	Obj   string
	Field string
}

// WriteField writes an opaque scalar into Obj->Field.
type WriteField struct {
	Obj   string
	Field string
}

// Assign aliases Dst = Src (both locals holding objects).
type Assign struct {
	Dst string
	Src string
}

// Return returns from the enclosing function; when Obj is non-empty the
// named object is returned.
type Return struct {
	Obj string
}

// If branches on an opaque condition.
type If struct {
	Then []Stmt
	Else []Stmt
}

// Loop repeats Body under an opaque condition.
type Loop struct {
	Body []Stmt
}

// Opaque is a distinctive no-op: it compiles to a scalar-constant load of
// Seed. Two otherwise-identical function bodies with different seeds do not
// fold under identical-code folding; conversely, omitting it from trivial
// accessors leaves them foldable.
type Opaque struct {
	Seed uint64
}

// Arg is an actual argument: an object variable or an opaque scalar.
type Arg struct {
	// Obj names a local variable holding an object; empty for a scalar.
	Obj string
}

func (New) isStmt()        {}
func (VCall) isStmt()      {}
func (NVCall) isStmt()     {}
func (CallFunc) isStmt()   {}
func (ReadField) isStmt()  {}
func (WriteField) isStmt() {}
func (Assign) isStmt()     {}
func (Return) isStmt()     {}
func (If) isStmt()         {}
func (Loop) isStmt()       {}
func (Opaque) isStmt()     {}

// Scalar returns an opaque scalar argument.
func Scalar() Arg { return Arg{} }

// ObjArg returns an object argument referring to local variable name.
func ObjArg(name string) Arg { return Arg{Obj: name} }

// Class lookup helpers -------------------------------------------------------

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Func returns the free function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// PrimaryBase returns the primary base class name, or "".
func (c *Class) PrimaryBase() string {
	if len(c.Bases) == 0 {
		return ""
	}
	return c.Bases[0]
}

// Method returns the method declared by c itself with the given name, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// PrimaryChain returns class name followed by its transitive primary bases,
// nearest first. Secondary (multiple-inheritance) bases are excluded: the
// chain lists exactly the classes whose vtable pointer occupies offset 0 of
// an instance of name. Returns nil for an unknown class.
func (p *Program) PrimaryChain(name string) []string {
	var out []string
	for n := name; n != ""; {
		c := p.Class(n)
		if c == nil {
			break
		}
		out = append(out, n)
		n = c.PrimaryBase()
	}
	return out
}

// Instantiated reports whether class name is instantiated anywhere in the
// program (by a New statement in any method or free function).
func (p *Program) Instantiated(name string) bool {
	hit := false
	visit := func(s Stmt) {
		if n, ok := s.(New); ok && n.Class == name {
			hit = true
		}
	}
	for _, f := range p.Funcs {
		walkStmts(f.Body, visit)
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			walkStmts(m.Body, visit)
		}
	}
	return hit
}

// walkStmts applies fn to every statement, recursing into If and Loop.
func walkStmts(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		switch st := s.(type) {
		case If:
			walkStmts(st.Then, fn)
			walkStmts(st.Else, fn)
		case Loop:
			walkStmts(st.Body, fn)
		}
	}
}

// Validate checks the structural well-formedness of the program: unique
// class and function names, declared-before-use bases, acyclic inheritance,
// resolvable methods and fields in all bodies, and pure methods without
// bodies. It returns the first problem found.
func (p *Program) Validate() error {
	classIdx := map[string]int{}
	for i, c := range p.Classes {
		if _, dup := classIdx[c.Name]; dup {
			return fmt.Errorf("cpp: duplicate class %q", c.Name)
		}
		classIdx[c.Name] = i
	}
	funcNames := map[string]bool{}
	for _, f := range p.Funcs {
		if funcNames[f.Name] {
			return fmt.Errorf("cpp: duplicate function %q", f.Name)
		}
		funcNames[f.Name] = true
	}
	for i, c := range p.Classes {
		seenBase := map[string]bool{}
		for _, b := range c.Bases {
			bi, ok := classIdx[b]
			if !ok {
				return fmt.Errorf("cpp: class %q inherits from undeclared class %q", c.Name, b)
			}
			if bi >= i {
				return fmt.Errorf("cpp: class %q must be declared after its base %q", c.Name, b)
			}
			if seenBase[b] {
				return fmt.Errorf("cpp: class %q lists base %q twice", c.Name, b)
			}
			seenBase[b] = true
		}
		seenM := map[string]bool{}
		for _, m := range c.Methods {
			if seenM[m.Name] {
				return fmt.Errorf("cpp: class %q declares method %q twice", c.Name, m.Name)
			}
			seenM[m.Name] = true
			if m.Pure && !m.Virtual {
				return fmt.Errorf("cpp: %s::%s is pure but not virtual", c.Name, m.Name)
			}
			if m.Pure && len(m.Body) > 0 {
				return fmt.Errorf("cpp: %s::%s is pure but has a body", c.Name, m.Name)
			}
			if err := p.validateBody(c, m.Body, methodScope(c, m)); err != nil {
				return fmt.Errorf("cpp: %s::%s: %w", c.Name, m.Name, err)
			}
		}
		seenF := map[string]bool{}
		for _, f := range c.Fields {
			if seenF[f.Name] {
				return fmt.Errorf("cpp: class %q declares field %q twice", c.Name, f.Name)
			}
			seenF[f.Name] = true
		}
	}
	for _, f := range p.Funcs {
		scope := map[string]string{}
		for _, prm := range f.Params {
			scope[prm.Name] = prm.Class
		}
		if err := p.validateBody(nil, f.Body, scope); err != nil {
			return fmt.Errorf("cpp: func %s: %w", f.Name, err)
		}
	}
	return nil
}

// methodScope builds the initial variable scope of a method body.
func methodScope(c *Class, _ *Method) map[string]string {
	return map[string]string{"this": c.Name}
}

// validateBody checks that every statement in body refers to declared
// variables, classes, methods, and fields. scope maps variable name to the
// static class name ("" for scalars). It mutates a copy of scope.
func (p *Program) validateBody(owner *Class, body []Stmt, scope map[string]string) error {
	local := make(map[string]string, len(scope))
	for k, v := range scope {
		local[k] = v
	}
	return p.validateStmts(owner, body, local)
}

func (p *Program) validateStmts(owner *Class, body []Stmt, scope map[string]string) error {
	objOf := func(name string) (string, error) {
		cls, ok := scope[name]
		if !ok {
			return "", fmt.Errorf("undeclared variable %q", name)
		}
		if cls == "" {
			return "", fmt.Errorf("variable %q is not an object", name)
		}
		return cls, nil
	}
	checkArgs := func(args []Arg) error {
		for _, a := range args {
			if a.Obj == "" {
				continue
			}
			if _, err := objOf(a.Obj); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range body {
		switch st := s.(type) {
		case New:
			if p.Class(st.Class) == nil {
				return fmt.Errorf("new of undeclared class %q", st.Class)
			}
			scope[st.Dst] = st.Class
		case Assign:
			cls, err := objOf(st.Src)
			if err != nil {
				return err
			}
			scope[st.Dst] = cls
		case VCall:
			cls, err := objOf(st.Obj)
			if err != nil {
				return err
			}
			m := p.resolveMethod(cls, st.Method)
			if m == nil {
				return fmt.Errorf("class %q has no method %q", cls, st.Method)
			}
			if !m.Virtual {
				return fmt.Errorf("virtual call to non-virtual %s::%s", cls, st.Method)
			}
			if err := checkArgs(st.Args); err != nil {
				return err
			}
		case NVCall:
			cls, err := objOf(st.Obj)
			if err != nil {
				return err
			}
			target := cls
			if st.Class != "" {
				target = st.Class
			}
			if p.resolveMethod(target, st.Method) == nil {
				return fmt.Errorf("class %q has no method %q", target, st.Method)
			}
			if err := checkArgs(st.Args); err != nil {
				return err
			}
		case CallFunc:
			if p.Func(st.Name) == nil {
				return fmt.Errorf("call to undeclared function %q", st.Name)
			}
			if err := checkArgs(st.Args); err != nil {
				return err
			}
		case ReadField:
			cls, err := objOf(st.Obj)
			if err != nil {
				return err
			}
			if !p.hasField(cls, st.Field) {
				return fmt.Errorf("class %q has no field %q", cls, st.Field)
			}
		case WriteField:
			cls, err := objOf(st.Obj)
			if err != nil {
				return err
			}
			if !p.hasField(cls, st.Field) {
				return fmt.Errorf("class %q has no field %q", cls, st.Field)
			}
		case Return:
			if st.Obj != "" {
				if _, err := objOf(st.Obj); err != nil {
					return err
				}
			}
		case If:
			if err := p.validateBody(owner, st.Then, scope); err != nil {
				return err
			}
			if err := p.validateBody(owner, st.Else, scope); err != nil {
				return err
			}
		case Loop:
			if err := p.validateBody(owner, st.Body, scope); err != nil {
				return err
			}
		case Opaque:
			// Always valid.
		default:
			return fmt.Errorf("unknown statement %T", s)
		}
	}
	return nil
}

// resolveMethod resolves method name against class cls, walking primary and
// secondary bases. Returns the nearest declaration.
func (p *Program) resolveMethod(cls, name string) *Method {
	for c := p.Class(cls); c != nil; {
		if m := c.Method(name); m != nil {
			return m
		}
		// Search secondary bases breadth-first after the primary chain.
		for _, b := range c.Bases[min(1, len(c.Bases)):] {
			if m := p.resolveMethod(b, name); m != nil {
				return m
			}
		}
		c = p.Class(c.PrimaryBase())
	}
	return nil
}

// hasField reports whether cls (or an ancestor) declares field name.
func (p *Program) hasField(cls, name string) bool {
	for c := p.Class(cls); c != nil; {
		for _, f := range c.Fields {
			if f.Name == name {
				return true
			}
		}
		for _, b := range c.Bases[min(1, len(c.Bases)):] {
			if p.hasField(b, name) {
				return true
			}
		}
		c = p.Class(c.PrimaryBase())
	}
	return false
}

// IsAbstract reports whether class name has a pure virtual method that is
// not overridden by name itself or an ancestor along the primary chain.
func (p *Program) IsAbstract(name string) bool {
	c := p.Class(name)
	if c == nil {
		return false
	}
	// Collect every virtual method visible on the class and check whether
	// the nearest declaration is pure.
	for _, mname := range p.visibleVirtuals(name) {
		if m := p.resolveMethod(name, mname); m != nil && m.Pure {
			return true
		}
	}
	return false
}

// visibleVirtuals returns the names of all virtual methods visible on class
// name (declared or inherited), sorted for determinism.
func (p *Program) visibleVirtuals(name string) []string {
	set := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		c := p.Class(n)
		if c == nil {
			return
		}
		for _, b := range c.Bases {
			walk(b)
		}
		for _, m := range c.Methods {
			if m.Virtual {
				set[m.Name] = true
			}
		}
	}
	walk(name)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SourceHierarchy returns the source-level parent map: child class name to
// primary base name, for every class with a base. Secondary bases are
// returned in the second map (child -> secondary bases).
func (p *Program) SourceHierarchy() (primary map[string]string, secondary map[string][]string) {
	primary = map[string]string{}
	secondary = map[string][]string{}
	for _, c := range p.Classes {
		if len(c.Bases) > 0 {
			primary[c.Name] = c.Bases[0]
		}
		if len(c.Bases) > 1 {
			secondary[c.Name] = append([]string(nil), c.Bases[1:]...)
		}
	}
	return primary, secondary
}
