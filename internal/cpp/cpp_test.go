package cpp

import "testing"

func valid() *Program {
	return &Program{
		Name: "t",
		Classes: []*Class{
			{Name: "A", Fields: []Field{{Name: "x"}}, Methods: []*Method{
				{Name: "m", Virtual: true},
				{Name: "p", Virtual: true, Pure: true},
			}},
			{Name: "B", Bases: []string{"A"}, Methods: []*Method{
				{Name: "p", Virtual: true},
				{Name: "n", Virtual: true},
			}},
		},
		Funcs: []*Func{
			{Name: "use", Body: []Stmt{
				New{Dst: "o", Class: "B"},
				VCall{Obj: "o", Method: "m"},
				ReadField{Obj: "o", Field: "x"},
				WriteField{Obj: "o", Field: "x"},
				Assign{Dst: "p", Src: "o"},
				If{Then: []Stmt{VCall{Obj: "p", Method: "n"}}},
				Loop{Body: []Stmt{Opaque{Seed: 1}}},
				Return{Obj: "o"},
			}},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Program)
	}{
		{"duplicate class", func(p *Program) { p.Classes = append(p.Classes, &Class{Name: "A"}) }},
		{"unknown base", func(p *Program) { p.Classes[1].Bases = []string{"Z"} }},
		{"base after derived", func(p *Program) { p.Classes[0], p.Classes[1] = p.Classes[1], p.Classes[0] }},
		{"pure with body", func(p *Program) { p.Classes[0].Methods[1].Body = []Stmt{Opaque{}} }},
		{"pure non-virtual", func(p *Program) { p.Classes[0].Methods[1].Virtual = false }},
		{"new of unknown class", func(p *Program) { p.Funcs[0].Body[0] = New{Dst: "o", Class: "Z"} }},
		{"call of unknown method", func(p *Program) { p.Funcs[0].Body[1] = VCall{Obj: "o", Method: "zz"} }},
		{"unknown field", func(p *Program) { p.Funcs[0].Body[2] = ReadField{Obj: "o", Field: "zz"} }},
		{"undeclared variable", func(p *Program) { p.Funcs[0].Body[1] = VCall{Obj: "q", Method: "m"} }},
		{"duplicate function", func(p *Program) { p.Funcs = append(p.Funcs, &Func{Name: "use"}) }},
	}
	for _, tc := range cases {
		p := valid()
		tc.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestHierarchyQueries(t *testing.T) {
	p := valid()
	if !p.Instantiated("B") || p.Instantiated("A") {
		t.Error("Instantiated wrong")
	}
	if !p.IsAbstract("A") || p.IsAbstract("B") {
		t.Error("IsAbstract wrong (A has un-overridden pure p, B overrides it)")
	}
	prim, sec := p.SourceHierarchy()
	if prim["B"] != "A" || len(sec) != 0 {
		t.Errorf("SourceHierarchy = %v %v", prim, sec)
	}
}

func TestPrimaryChain(t *testing.T) {
	p := valid()
	// Add a secondary base to B's subclass to check MI bases are skipped.
	p.Classes = append(p.Classes,
		&Class{Name: "S", Methods: []*Method{{Name: "s", Virtual: true}}},
		&Class{Name: "C", Bases: []string{"B", "S"}})
	if got := p.PrimaryChain("C"); len(got) != 3 || got[0] != "C" || got[1] != "B" || got[2] != "A" {
		t.Errorf("PrimaryChain(C) = %v, want [C B A]", got)
	}
	if got := p.PrimaryChain("A"); len(got) != 1 || got[0] != "A" {
		t.Errorf("PrimaryChain(A) = %v, want [A]", got)
	}
	if got := p.PrimaryChain("Z"); got != nil {
		t.Errorf("PrimaryChain(Z) = %v, want nil", got)
	}
}

func TestResolveThroughChain(t *testing.T) {
	p := valid()
	if m := p.resolveMethod("B", "m"); m == nil || m.Pure {
		t.Error("inherited method not resolved")
	}
	if m := p.resolveMethod("B", "p"); m == nil || m.Pure {
		t.Error("override should shadow the pure declaration")
	}
	if !p.hasField("B", "x") {
		t.Error("inherited field not found")
	}
}
