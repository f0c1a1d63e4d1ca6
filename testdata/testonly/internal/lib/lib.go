// Package lib is a fixture for TestNoTestOnlyExportsFixture.
package lib

import "fmt"

// Label is named by Used's signature, and its String method only
// satisfies fmt.Stringer.
type Label int

func (l Label) String() string { return fmt.Sprintf("label %d", int(l)) }

// Used has a non-test caller.
func Used() Label { return 1 }

// OnlyTested has no caller outside lib_test.go; its own recursive call
// does not count as one.
func OnlyTested(n int) int {
	if n == 0 {
		return 0
	}
	return OnlyTested(n - 1)
}
