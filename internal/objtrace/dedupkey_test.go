package objtrace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/vtable"
)

// fmtSegmentKey and fmtStructKey are the formatted-string dedup keys the
// extractor used before its fixed-width binary keys; the reference
// dedup below runs on them.
func fmtSegmentKey(vt uint64, evs []Event) string {
	s := fmt.Sprintf("%d|", vt)
	for _, e := range evs {
		s += fmt.Sprintf("%d:%d;", e.Kind, e.N)
	}
	return s
}

func fmtStructKey(os ObjStruct) string {
	s := fmt.Sprintf("%x|%v|", os.Fn, os.EntryThis)
	for _, e := range os.Events {
		s += fmt.Sprintf("%v:%d:%x:%x;", e.Install, e.Off, e.VT, e.Callee)
	}
	return s
}

// refExtraction is executor.extraction keyed by the formatted strings.
func refExtraction(ex *executor) *FnExtraction {
	out := &FnExtraction{Entry: ex.fn.Entry}
	seqSeen, structSeen := map[string]bool{}, map[string]bool{}
	for _, seg := range ex.segments {
		if k := fmtSegmentKey(seg.vt, seg.events); len(seg.events) > 0 && !seqSeen[k] {
			seqSeen[k] = true
			out.Segments = append(out.Segments, Segment{VT: seg.vt, Events: seg.events})
		}
	}
	for _, os := range ex.structs {
		if k := fmtStructKey(os); !structSeen[k] {
			structSeen[k] = true
			out.Structs = append(out.Structs, os)
		}
	}
	return out
}

// refMerge is MergeFunctions keyed by the formatted strings.
func refMerge(exts []*FnExtraction, vts []*vtable.VTable, cfg Config) *Result {
	res := &Result{
		PerType:    map[uint64][]Tracelet{},
		RawPerType: map[uint64][][]Event{},
		FnVTables:  map[uint64][]uint64{},
	}
	for _, v := range vts {
		for _, f := range v.Slots {
			res.FnVTables[f] = append(res.FnVTables[f], v.Addr)
		}
	}
	structSeen := map[string]bool{}
	for _, ext := range exts {
		seqSeen := map[string]bool{}
		for _, seg := range ext.Segments {
			k := fmtSegmentKey(seg.VT, seg.Events)
			if seqSeen[k] || len(seg.Events) == 0 {
				continue
			}
			seqSeen[k] = true
			types := []uint64{seg.VT}
			if seg.VT == EntryThisVT {
				types = res.FnVTables[ext.Entry]
			}
			for _, t := range types {
				res.RawPerType[t] = append(res.RawPerType[t], seg.Events)
				res.PerType[t] = append(res.PerType[t], windows(seg.Events, cfg.Window)...)
			}
		}
		for _, os := range ext.Structs {
			if k := fmtStructKey(os); !structSeen[k] {
				structSeen[k] = true
				res.Structs = append(res.Structs, os)
			}
		}
	}
	return res
}

// dedupImages returns the Table 2 images plus one synthetic image per
// generator shape, rotating through the compiler modes.
func dedupImages(t *testing.T) map[string]*image.Image {
	t.Helper()
	imgs := map[string]*image.Image{}
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs[b.Name] = img
	}
	for _, name := range []string{"random/opt", "deep/devirt", "wide/comdat", "diamond/partial", "split/friendly", "interleaved/opt"} {
		img, _, err := bench.SynthByName(name).Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs[name] = img
	}
	return imgs
}

// collidingExtractions are hand-made bundles whose segments and structs
// differ in exactly one key field each (type, event kind, operand,
// struct function, receiver flag, install flag, offset, vtable, callee),
// plus exact repeats, so a key that dropped or merged a field would keep
// too few of them.
func collidingExtractions() []*FnExtraction {
	ev := func(k EventKind, n uint64) Event { return Event{Kind: k, N: n} }
	segs := []Segment{
		{VT: 0x100, Events: []Event{ev(EvCall, 1), ev(EvRead, 8)}},
		{VT: 0x200, Events: []Event{ev(EvCall, 1), ev(EvRead, 8)}},
		{VT: 0x100, Events: []Event{ev(EvCall, 1), ev(EvWrite, 8)}},
		{VT: 0x100, Events: []Event{ev(EvCall, 1), ev(EvRead, 16)}},
		{VT: 0x100, Events: []Event{ev(EvCall, 1)}},
		{VT: 0x100, Events: []Event{ev(EvCall, 1), ev(EvRead, 8)}},
		{VT: EntryThisVT, Events: []Event{ev(EvThis, 0), ev(EvRet, 0)}},
		{VT: EntryThisVT, Events: []Event{ev(EvThis, 0), ev(EvRet, 0)}},
	}
	se := StructEvent{Install: true, Off: 8, VT: 0x100, Callee: 0x4000}
	vary := func(f func(*StructEvent)) []StructEvent {
		e := se
		f(&e)
		return []StructEvent{e}
	}
	structs := func(fn uint64) []ObjStruct {
		return []ObjStruct{
			{Fn: fn, Events: []StructEvent{se}},
			{Fn: fn, EntryThis: true, Events: []StructEvent{se}},
			{Fn: fn, Events: vary(func(e *StructEvent) { e.Install = false })},
			{Fn: fn, Events: vary(func(e *StructEvent) { e.Off = 16 })},
			{Fn: fn, Events: vary(func(e *StructEvent) { e.VT = 0x200 })},
			{Fn: fn, Events: vary(func(e *StructEvent) { e.Callee = 0x4010 })},
			{Fn: fn, Events: []StructEvent{se}},
		}
	}
	return []*FnExtraction{
		{Entry: 0x4000, Segments: segs, Structs: structs(0x4000)},
		{Entry: 0x4010, Segments: segs, Structs: append(structs(0x4010), structs(0x4000)...)},
	}
}

// TestBinaryDedupKeysMatchFmtKeys: deduplicating by the fixed-width
// binary keys keeps exactly the segments and structs the formatted-string
// keys kept, in the same order, per function and after the merge.
func TestBinaryDedupKeysMatchFmtKeys(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	for name, img := range dedupImages(t) {
		fns, err := disasm.All(img)
		if err != nil {
			t.Fatal(err)
		}
		vts := vtable.Discover(img, fns)
		vtSet := map[uint64]bool{}
		fnVTables := map[uint64][]uint64{}
		for _, v := range vts {
			vtSet[v.Addr] = true
			for _, f := range v.Slots {
				fnVTables[f] = append(fnVTables[f], v.Addr)
			}
		}
		exts := make([]*FnExtraction, len(fns))
		refs := make([]*FnExtraction, len(fns))
		for i, fn := range fns {
			ex := &executor{img: img, fn: fn, cfg: cfg, vtSet: vtSet, thisTypes: fnVTables[fn.Entry]}
			ex.run()
			exts[i], refs[i] = ex.extraction(), refExtraction(ex)
			if !reflect.DeepEqual(exts[i], refs[i]) {
				t.Fatalf("%s: function %#x: binary-keyed extraction differs from the formatted-key reference", name, fn.Entry)
			}
		}
		if got, want := MergeFunctions(exts, vts, cfg), refMerge(refs, vts, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: binary-keyed merge differs from the formatted-key reference", name)
		}
	}
	vts := []*vtable.VTable{{Addr: 0x100, Slots: []uint64{0x4000}}, {Addr: 0x200, Slots: []uint64{0x4000, 0x4010}}}
	exts := collidingExtractions()
	if got, want := MergeFunctions(exts, vts, cfg), refMerge(exts, vts, cfg); !reflect.DeepEqual(got, want) {
		t.Fatal("colliding bundles: binary-keyed merge differs from the formatted-key reference")
	}
}
