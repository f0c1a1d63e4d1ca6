// Package structural implements the preprocessing phase of §5: it clusters
// binary types (vtables) into type families (Phase I) and eliminates
// impossible child→parent pairs within each family (Phase II), producing
// the possibleParent relation that focuses the behavioral analysis.
//
// Family evidence (Phase I):
//   - two vtables sharing a function pointer (inherited, un-overridden
//     implementations — the "DNA fingerprint" of §5.1); the pure-virtual
//     stub is excluded, since unrelated abstract classes share it;
//   - two vtables installed into the same object (observed instances,
//     including constructor-chain double installs and the subobject
//     installs of multiple inheritance);
//   - a constructor/destructor of one type calling the constructor/
//     destructor of another (§5.2 rule 3), which also yields a definitive
//     parent.
//
// Elimination rules (Phase II), for a candidate pair (child c, parent p):
//   - a child's vtable cannot have fewer slots than its parent's (§5.2
//     rule 1, as justified there: "a child class may only add functions to
//     the vtable of its parent or replace existing ones");
//   - if slot i of c is the pure-virtual stub but slot i of p is a concrete
//     implementation, c cannot derive from p: it would have inherited the
//     implementation or defined its own (§5.2 rule 2);
//   - a type with a constructor-derived definitive parent admits no other
//     candidates.
package structural

import (
	"sort"

	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/objtrace"
	"repro/internal/vtable"
)

// Result is the output of the structural analysis.
type Result struct {
	// Families partitions the vtable addresses; each family is sorted.
	Families [][]uint64
	// FamilyOf maps a vtable address to its index in Families.
	FamilyOf map[uint64]int
	// PossibleParents maps each type to its surviving candidate parents
	// (always within the same family), sorted.
	PossibleParents map[uint64][]uint64
	// DefinitiveParent records parents established by rule 3.
	DefinitiveParent map[uint64]uint64
	// Purecall is the detected pure-virtual stub address (0 if none).
	Purecall uint64
	// SecondaryInstalls maps a primary type to the secondary vtables
	// installed at nonzero offsets of its instances (multiple-inheritance
	// evidence, §5.3).
	SecondaryInstalls map[uint64][]uint64
	// InstallerOf maps a function entry to the primary vtables it installs
	// on its receiver (constructor/destructor summaries).
	InstallerOf map[uint64][]uint64
}

// Analyze runs both phases, every heuristic above always applied.
func Analyze(img *image.Image, fns []*ir.Function, vts []*vtable.VTable, tr *objtrace.Result) *Result {
	res := &Result{
		FamilyOf:          map[uint64]int{},
		PossibleParents:   map[uint64][]uint64{},
		DefinitiveParent:  map[uint64]uint64{},
		SecondaryInstalls: map[uint64][]uint64{},
		InstallerOf:       map[uint64][]uint64{},
	}
	res.Purecall = findPurecall(img, fns)

	byAddr := vtable.ByAddr(vts)
	uf := newUnionFind()
	for _, v := range vts {
		uf.add(v.Addr)
	}

	// Phase I evidence 1: shared slots.
	owner := map[uint64]uint64{} // function -> first vtable seen containing it
	for _, v := range vts {
		for _, f := range v.Slots {
			if f == res.Purecall {
				continue
			}
			if prev, ok := owner[f]; ok {
				uf.union(prev, v.Addr)
			} else {
				owner[f] = v.Addr
			}
		}
	}

	// Constructor/destructor summaries: functions that install a vtable at
	// offset 0 of their receiver.
	for _, os := range tr.Structs {
		if !os.EntryThis {
			continue
		}
		for _, e := range os.Events {
			if e.Install && e.Off == 0 {
				res.InstallerOf[os.Fn] = appendUnique(res.InstallerOf[os.Fn], e.VT)
			}
		}
	}

	// Phase I evidence 2 + 3, secondary installs, and definitive parents.
	for _, os := range tr.Structs {
		var primaries []uint64
		var secondaries []uint64
		var installerCallees []uint64
		for _, e := range os.Events {
			switch {
			case e.Install && e.Off == 0:
				primaries = append(primaries, e.VT)
			case e.Install:
				secondaries = append(secondaries, e.VT)
			case e.Callee != 0:
				if len(res.InstallerOf[e.Callee]) > 0 {
					installerCallees = append(installerCallees, e.Callee)
				}
			}
		}
		if len(primaries) == 0 {
			continue
		}
		// The most-derived type of the object is the last primary install
		// in a construction sequence; destructors install their own type
		// first. Either way every installed vtable shares the family.
		for _, vt := range primaries[1:] {
			uf.union(primaries[0], vt)
		}
		for _, vt := range secondaries {
			uf.union(primaries[0], vt)
		}
		self := primaries[len(primaries)-1]
		if _, ok := byAddr[self]; !ok {
			continue
		}
		for _, vt := range secondaries {
			res.SecondaryInstalls[self] = appendUnique(res.SecondaryInstalls[self], vt)
		}
		for _, g := range installerCallees {
			installed := res.InstallerOf[g]
			parent := installed[len(installed)-1]
			if parent != self {
				res.DefinitiveParent[self] = parent
				uf.union(self, parent)
			}
		}
	}

	// Materialize families.
	groups := map[uint64][]uint64{}
	for _, v := range vts {
		r := uf.find(v.Addr)
		groups[r] = append(groups[r], v.Addr)
	}
	roots := make([]uint64, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		fam := groups[r]
		sort.Slice(fam, func(i, j int) bool { return fam[i] < fam[j] })
		idx := len(res.Families)
		res.Families = append(res.Families, fam)
		for _, vt := range fam {
			res.FamilyOf[vt] = idx
		}
	}

	// Phase II: eliminate impossible parents within each family.
	for _, fam := range res.Families {
		for _, c := range fam {
			cv := byAddr[c]
			if dp, ok := res.DefinitiveParent[c]; ok {
				res.PossibleParents[c] = []uint64{dp}
				continue
			}
			var cands []uint64
			for _, p := range fam {
				if p == c {
					continue
				}
				pv := byAddr[p]
				if cv.NumSlots() < pv.NumSlots() {
					continue
				}
				if res.Purecall != 0 && violatesPurecall(cv, pv, res.Purecall) {
					continue
				}
				cands = append(cands, p)
			}
			res.PossibleParents[c] = cands
		}
	}
	return res
}

// violatesPurecall reports whether child c has the pure stub at a slot
// where candidate parent p has a concrete implementation.
func violatesPurecall(c, p *vtable.VTable, purecall uint64) bool {
	n := c.NumSlots()
	if p.NumSlots() < n {
		n = p.NumSlots()
	}
	for i := 0; i < n; i++ {
		if c.Slots[i] == purecall && p.Slots[i] != purecall {
			return true
		}
	}
	return false
}

// findPurecall detects the pure-virtual stub: a function that calls the
// abort import and ends in a self-loop (a noreturn trap), the shape of
// MSVC's _purecall.
func findPurecall(img *image.Image, fns []*ir.Function) uint64 {
	for _, f := range fns {
		callsAbort := false
		selfLoop := false
		for i, in := range f.Insts {
			if in.Op == ir.OpCall && img.Imports[in.Imm] == image.ImportAbort {
				callsAbort = true
			}
			if in.Op == ir.OpJmp && in.Imm == f.AddrOf(i) {
				selfLoop = true
			}
		}
		if callsAbort && selfLoop {
			return f.Entry
		}
	}
	return 0
}

// Resolvable reports whether the structural analysis alone pins down a
// single hierarchy (§6.4's distinction between the benchmarks above and
// below the line): every type has at most one possible parent and the
// candidate graph is acyclic (two types that are each other's only
// candidate still admit two hierarchies).
func (r *Result) Resolvable() bool {
	for _, ps := range r.PossibleParents {
		if len(ps) > 1 {
			return false
		}
	}
	// Cycle check over the single-candidate edges.
	state := map[uint64]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(t uint64) bool
	visit = func(t uint64) bool {
		switch state[t] {
		case 1:
			return false
		case 2:
			return true
		}
		state[t] = 1
		for _, p := range r.PossibleParents[t] {
			if !visit(p) {
				return false
			}
		}
		state[t] = 2
		return true
	}
	for t := range r.PossibleParents {
		if !visit(t) {
			return false
		}
	}
	return true
}

func appendUnique(s []uint64, v uint64) []uint64 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// union-find ------------------------------------------------------------------

type unionFind struct {
	parent map[uint64]uint64
}

func newUnionFind() *unionFind { return &unionFind{parent: map[uint64]uint64{}} }

func (u *unionFind) add(x uint64) {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
	}
}

func (u *unionFind) find(x uint64) uint64 {
	u.add(x)
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b uint64) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}
