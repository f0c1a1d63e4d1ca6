// Package compiler lowers a cpp.Program to a stripped binary image
// (internal/image). It models the MSVC behaviours the paper identifies as
// the source of the reconstruction problem's difficulty:
//
//   - vtable layout with slot inheritance and override-in-place (§5.1);
//   - an implicit virtual destructor in slot 0 of every polymorphic class;
//   - constructors that install the vtable pointer, with optional inlining
//     of parent constructors and elision of the then-dead parent vtable
//     stores (removing the structural cues of §5.2);
//   - elimination of abstract (pure-virtual) classes, which splits source
//     inheritance trees into several binary trees (§4.1);
//   - identical-code folding (/OPT:ICF), which makes unrelated vtables share
//     function pointers (error source 1 of §6.4);
//   - stripping: names and hierarchy survive only in the metadata
//     side-channel used for ground truth, never in the image bytes.
package compiler

import (
	"fmt"
	"sort"

	"repro/internal/cpp"
)

// Options control the optimization behaviours relevant to the paper.
type Options struct {
	// InlineCtorAtNew splices constructor bodies at allocation sites, so the
	// vtable-install appears in the using function (how objects become
	// typeable intra-procedurally). MSVC does this for trivial ctors at /O2.
	InlineCtorAtNew bool
	// InlineParentCtors splices parent constructor/destructor bodies into
	// child ctors/dtors instead of emitting a call (removes the §5.2 rule-3
	// structural cue).
	InlineParentCtors bool
	// ElideDeadVtableStores removes parent vtable-pointer stores that are
	// overwritten by the most-derived store in a fully inlined ctor chain
	// (removes the "observed instance" double-install cue).
	ElideDeadVtableStores bool
	// RemoveAbstractClasses drops vtables/ctors of pure-virtual classes
	// (they cannot be instantiated), splitting hierarchies (§4.1, Fig. 9).
	RemoveAbstractClasses bool
	// FoldIdenticalBodies enables identical-code folding: functions with
	// byte-identical bodies are merged, so vtables of unrelated classes can
	// point to the same implementation (error source 1 of §6.4).
	FoldIdenticalBodies bool
	// EmitDtors synthesizes a virtual destructor in slot 0 of every
	// polymorphic class, as MSVC-compiled MFC-style code has.
	EmitDtors bool
	// ForceInlineParentCtorOf lists classes whose parent constructor/
	// destructor is inlined (and its vtable store elided) even when the
	// global InlineParentCtors/ElideDeadVtableStores flags are off —
	// modelling the compiler's per-call-site inlining decisions for
	// trivial parent constructors.
	ForceInlineParentCtorOf []string
	// DevirtualizeMono turns virtual call sites with exactly one possible
	// target into direct calls (class-hierarchy analysis over the
	// instantiated classes, as /O2 whole-program devirtualization does for
	// effectively-final methods). The vtable-pointer loads disappear with
	// the indirect call, thinning the C(i) tracelet events the behavioral
	// analysis learns from. Ground truth is unaffected: only the call
	// encoding changes, never the hierarchy.
	DevirtualizeMono bool
	// ComdatFoldMethods folds byte-identical *method* bodies (vtable slot
	// implementations and destructors) the way a linker merges identical
	// COMDAT sections contributed by multiple TUs — unrelated vtables come
	// to share function pointers (the §5.1 family-evidence hazard) while
	// free functions and constructors are left alone. A strict subset of
	// FoldIdenticalBodies, usable independently.
	ComdatFoldMethods bool
	// PartialInlineParentCtors inlines exactly ONE level of the parent
	// constructor/destructor chain: the parent's own field and vtable
	// initialization is spliced into the child, but the grandparent stays
	// an out-of-line call. The surviving §5.2 rule-3 cue now names the
	// grandparent instead of the parent — a misleading definitive parent,
	// exactly what per-call-site inliners produce for trivial middle
	// constructors. Ignored when InlineParentCtors already inlines the
	// whole chain. Ground truth (the induced hierarchy) is unchanged.
	PartialInlineParentCtors bool
}

// forcesInline reports whether cls's parent ctor/dtor is force-inlined.
func (o Options) forcesInline(cls string) bool {
	for _, c := range o.ForceInlineParentCtorOf {
		if c == cls {
			return true
		}
	}
	return false
}

// DefaultOptions is the fully optimized, stripped configuration used for the
// hard benchmarks: all structural parent cues are optimized away.
func DefaultOptions() Options {
	return Options{
		InlineCtorAtNew:       true,
		InlineParentCtors:     true,
		ElideDeadVtableStores: true,
		RemoveAbstractClasses: true,
		EmitDtors:             true,
	}
}

// DebugFriendlyOptions is the least aggressive configuration: parent ctors
// are real calls, so the structural analysis alone can resolve hierarchies.
func DebugFriendlyOptions() Options {
	return Options{
		InlineCtorAtNew: true,
		EmitDtors:       true,
	}
}

// slot describes one vtable slot.
type slot struct {
	// method is the source-level method name ("~" for the implicit dtor).
	method string
	// impl is the function key implementing the slot ("m:Class::name",
	// "dtor:Class", or "stub:purecall").
	impl string
}

// classInfo is the computed layout of one class.
type classInfo struct {
	cls *cpp.Class
	// emitted reports whether the class gets a vtable in the binary.
	emitted bool
	// abstract per cpp.IsAbstract.
	abstract bool
	// instantiated anywhere in the program.
	instantiated bool
	// size of an instance in bytes.
	size int
	// fieldOff maps every visible field name to its byte offset.
	fieldOff map[string]int
	// slots is the primary vtable layout.
	slots []slot
	// secBases lists secondary bases in declaration order.
	secBases []string
	// secOff maps secondary base name to the byte offset of its subobject
	// (where its vtable pointer lives).
	secOff map[string]int
	// secSlots maps secondary base name to that subobject's vtable layout.
	secSlots map[string][]slot
	// inducedParent is the nearest emitted ancestor along the primary
	// chain ("" if none) — the post-optimization parent recorded as ground
	// truth.
	inducedParent string
	// inducedSecondary is the list of nearest emitted ancestors of each
	// secondary base.
	inducedSecondary []string
}

// layouts computes classInfo for every class, in declaration order.
func layouts(p *cpp.Program, opts Options) (map[string]*classInfo, error) {
	infos := map[string]*classInfo{}
	for _, c := range p.Classes {
		ci := &classInfo{
			cls:          c,
			abstract:     p.IsAbstract(c.Name),
			instantiated: p.Instantiated(c.Name),
			fieldOff:     map[string]int{},
			secOff:       map[string]int{},
			secSlots:     map[string][]slot{},
		}
		if ci.abstract && ci.instantiated {
			return nil, fmt.Errorf("compiler: abstract class %q is instantiated", c.Name)
		}

		// Object layout: primary base subobject first (vptr at 0), then
		// secondary base subobjects, then own fields.
		off := 0
		if pb := c.PrimaryBase(); pb != "" {
			base := infos[pb]
			off = base.size
			for k, v := range base.fieldOff {
				ci.fieldOff[k] = v
			}
			ci.slots = append([]slot(nil), base.slots...)
			// Secondary bases of ancestors keep their offsets.
			for k, v := range base.secOff {
				ci.secOff[k] = v
			}
			for k, v := range base.secSlots {
				ci.secSlots[k] = append([]slot(nil), v...)
			}
		} else {
			off = 8 // vtable pointer
			if opts.EmitDtors {
				ci.slots = []slot{{method: "~", impl: ""}}
			}
		}
		for _, b := range c.Bases[min(1, len(c.Bases)):] {
			base := infos[b]
			ci.secBases = append(ci.secBases, b)
			ci.secOff[b] = off
			ci.secSlots[b] = append([]slot(nil), base.slots...)
			for fname, foff := range base.fieldOff {
				if _, dup := ci.fieldOff[fname]; !dup {
					ci.fieldOff[fname] = off + foff - 8 + 8 // base-relative, past its vptr
				}
			}
			off += base.size
		}
		for _, f := range c.Fields {
			ci.fieldOff[f.Name] = off
			off += 8
		}
		ci.size = off

		// Primary vtable: apply overrides, append new virtuals.
		if opts.EmitDtors {
			// Every class gets its own destructor implementation.
			if len(ci.slots) > 0 && ci.slots[0].method == "~" {
				ci.slots[0].impl = "dtor:" + c.Name
			}
		}
		for _, m := range c.Methods {
			if !m.Virtual {
				continue
			}
			implKey := "m:" + c.Name + "::" + m.Name
			if m.Pure {
				implKey = "stub:purecall"
			}
			replaced := false
			for i := range ci.slots {
				if ci.slots[i].method == m.Name {
					ci.slots[i].impl = implKey
					replaced = true
					break
				}
			}
			// Overrides of secondary-base methods land in the secondary
			// vtable only (the ABI dispatches them through the subobject's
			// vptr); a genuinely new virtual gets a fresh primary slot.
			for b := range ci.secSlots {
				for i := range ci.secSlots[b] {
					if ci.secSlots[b][i].method == m.Name {
						ci.secSlots[b][i].impl = implKey
						replaced = true
					}
				}
			}
			if !replaced {
				ci.slots = append(ci.slots, slot{method: m.Name, impl: implKey})
			}
		}
		if opts.EmitDtors {
			for b := range ci.secSlots {
				if len(ci.secSlots[b]) > 0 && ci.secSlots[b][0].method == "~" {
					ci.secSlots[b][0].impl = "dtor:" + c.Name
				}
			}
		}
		infos[c.Name] = ci
	}

	// Emission decisions.
	for _, c := range p.Classes {
		ci := infos[c.Name]
		polymorphic := len(ci.slots) > 0
		ci.emitted = polymorphic
		if opts.RemoveAbstractClasses && ci.abstract {
			ci.emitted = false
		}
	}

	// Induced hierarchy: nearest emitted ancestor along the primary chain.
	for _, c := range p.Classes {
		ci := infos[c.Name]
		ci.inducedParent = nearestEmitted(p, infos, c.PrimaryBase())
		for _, b := range c.Bases[min(1, len(c.Bases)):] {
			if ip := nearestEmittedOrSelf(p, infos, b); ip != "" {
				ci.inducedSecondary = append(ci.inducedSecondary, ip)
			}
		}
	}
	return infos, nil
}

// nearestEmitted walks the primary chain starting at name (inclusive) and
// returns the first emitted class, or "".
func nearestEmitted(p *cpp.Program, infos map[string]*classInfo, name string) string {
	for name != "" {
		if ci := infos[name]; ci != nil && ci.emitted {
			return name
		}
		c := p.Class(name)
		if c == nil {
			return ""
		}
		name = c.PrimaryBase()
	}
	return ""
}

func nearestEmittedOrSelf(p *cpp.Program, infos map[string]*classInfo, name string) string {
	return nearestEmitted(p, infos, name)
}

// sortedClassNames returns emitted class names in declaration order.
func emittedClasses(p *cpp.Program, infos map[string]*classInfo) []string {
	var out []string
	for _, c := range p.Classes {
		if infos[c.Name].emitted {
			out = append(out, c.Name)
		}
	}
	return out
}

// methodSlot locates method name in the dispatch tables of static class
// cls: it returns the vtable-pointer offset within the object (0 for the
// primary vtable) and the slot index.
func methodSlot(infos map[string]*classInfo, cls, method string) (vptrOff, slotIdx int, err error) {
	ci := infos[cls]
	if ci == nil {
		return 0, 0, fmt.Errorf("compiler: unknown class %q", cls)
	}
	for i, s := range ci.slots {
		if s.method == method {
			return 0, i, nil
		}
	}
	// Secondary dispatch: search secondary bases in a deterministic order.
	bases := make([]string, 0, len(ci.secSlots))
	for b := range ci.secSlots {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		for i, s := range ci.secSlots[b] {
			if s.method == method {
				return ci.secOff[b], i, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("compiler: class %q has no virtual slot for %q", cls, method)
}
