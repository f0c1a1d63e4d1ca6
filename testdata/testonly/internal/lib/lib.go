// Package lib is the fixture of the least-code checks (exports_test.go).
package lib

import "fmt"

// Label is named by Used's signature, and its String method only
// satisfies fmt.Stringer.
type Label int

func (l Label) String() string { return fmt.Sprintf("label %d", int(l)) }

// Used has a non-test caller.
func Used() Label {
	return Label(len(walk([]stmt{leaf{}})) + helper() + Configure().Read() + Record())
}

// OnlyTested has no caller outside lib_test.go; its own recursive call
// does not count as one.
func OnlyTested(n int) int {
	if n == 0 {
		return 0
	}
	return OnlyTested(n - 1)
}

// onlyTested is the unexported twin of OnlyTested.
func onlyTested() int { return 0 }

// helper has a non-test caller.
func helper() int { return int(kindLeaf) }

// unusedLimit is named nowhere.
const unusedLimit = 8

// kind's iota block starts with a zero value nothing names.
type kind int

const (
	kindUnknown kind = iota
	kindLeaf
)

// stmt is a closed interface: its marker method only satisfies it.
type stmt interface{ isStmt() }

type leaf struct{}

func (leaf) isStmt() {}

func walk(ss []stmt) []stmt { return ss }

// counter's reset method has only a test caller.
type counter struct{ n int }

func (c *counter) reset() { c.n = 0 }

// Tally is a field type with a pointer method.
type Tally struct{ N int }

// Add increments the tally.
func (t *Tally) Add() { t.N++ }

// Sub is a field type written through its own field.
type Sub struct{ Hits int }

// Options exercises each way of writing a field. Every field but Unread
// is read by Read; only OnlyTestSet has no non-test writer.
type Options struct {
	Assigned      int
	Literal       int
	Incremented   int
	Addressed     int
	PointerMethod Tally
	SubField      Sub
	Tagged        int `json:"tagged"`
	Unread        int
	OnlyTestSet   bool
}

// Configure writes every field of Options but Tagged, Unread and
// OnlyTestSet.
func Configure() *Options {
	o := &Options{Literal: 1}
	o.Assigned = 2
	o.Incremented++
	p := &o.Addressed
	*p = 3
	o.PointerMethod.Add()
	o.SubField.Hits = 4
	return o
}

// Read reads every field of Options but Unread.
func (o *Options) Read() int {
	n := o.Assigned + o.Literal + o.Incremented + o.Addressed + o.PointerMethod.N + o.SubField.Hits + o.Tagged
	if o.OnlyTestSet {
		n++
	}
	return n
}

// Outcome exercises the write-only rule: Record writes every field, and
// reads back every one but Stored, Encoded and OnlyTestRead.
type Outcome struct {
	Stored       int
	ReadBack     int
	Summed       int
	Pointed      int
	Nested       Sub
	Encoded      int `json:"encoded"`
	OnlyTestRead int
}

// Record fills an Outcome and sums what it reads back.
func Record() int {
	var o Outcome
	o.Stored = 1
	o.ReadBack = 2
	o.Summed += 3
	p := &o.Pointed
	o.Nested.Hits = 4
	o.Encoded = 5
	o.OnlyTestRead = 6
	return o.ReadBack + o.Summed + *p
}
