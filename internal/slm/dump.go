package slm

import (
	"fmt"
	"strings"
)

// dumper renders the Fig. 8 view of a context trie for Frozen.Dump (the
// tests' reference builder drives it too, so both print identically).
// path holds the descent symbols from the root (most-recent-first, the
// trie's storage order) as a shared stack — push on descend, pop on
// return — instead of the old per-node prepend-copy
// (append([]int{s}, ctx...)), which reallocated and copied the whole
// context at every node: O(n·depth) work and garbage on large tries.
type dumper struct {
	b      strings.Builder
	path   []int
	syms   []int
	counts []int
}

// line prints one context row from the current path and the sorted
// (syms, counts) of the node. The context displays oldest-first, i.e.
// the reverse of the descent path.
func (d *dumper) line(depth, total int, name func(int) string) {
	d.b.WriteString(strings.Repeat("  ", depth))
	d.b.WriteString("context [")
	if len(d.path) == 0 {
		d.b.WriteString("<root>")
	} else {
		for i := len(d.path) - 1; i >= 0; i-- {
			if i < len(d.path)-1 {
				d.b.WriteString(" ")
			}
			d.b.WriteString(name(d.path[i]))
		}
	}
	d.b.WriteString("]:")
	n := len(d.syms)
	denom := float64(total + n)
	for i, s := range d.syms {
		fmt.Fprintf(&d.b, " %s=%.3f", name(s), float64(d.counts[i])/denom)
	}
	if n > 0 {
		fmt.Fprintf(&d.b, " escape=%.3f", float64(n)/denom)
	}
	d.b.WriteString("\n")
}
