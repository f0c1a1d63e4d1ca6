package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested(3) != 0 {
		t.Fatal("OnlyTested(3) != 0")
	}
}
