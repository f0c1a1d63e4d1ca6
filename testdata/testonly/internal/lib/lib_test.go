package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested(3) != 0 || onlyTested() != 0 {
		t.Fatal("OnlyTested(3) != 0")
	}
	c := &counter{n: 2}
	c.reset()
	if (&Options{OnlyTestSet: true}).Read() != 1 {
		t.Fatal("Read without OnlyTestSet")
	}
	if (Outcome{OnlyTestRead: 6}).OnlyTestRead != 6 {
		t.Fatal("OnlyTestRead lost")
	}
}
