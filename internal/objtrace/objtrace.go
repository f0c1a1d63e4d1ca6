// Package objtrace statically extracts object tracelets from a stripped
// binary image (§3.2 of the paper). An intra-procedural symbolic execution
// runs each function separately, tracking symbolic object values; objects
// are identified by vtable-pointer installs (object initialization or
// destruction) and by the `this` pointer of virtual functions. The events
// recorded per object are exactly those of Table 1:
//
//	C(i)    call to a virtual function at slot i of the object's vtable
//	R(i)    read from a field at offset i of the object
//	W(i)    write to a field at offset i of the object
//	this    object passed as the receiver to a function
//	Arg(i)  object passed as i-th argument to a function
//	ret     object returned from the function
//	call(f) a call to a concrete function f the object participates in
//
// Event sequences are split into tracelets of bounded length (up to 7 in
// the paper's experiments); TT(t) is the union of tracelets of all objects
// of type t. The extractor also records the structural observations the
// §5 analysis needs: ordered vtable installs per object and direct calls
// made with an object as receiver (constructor-chain evidence).
package objtrace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/vtable"
)

// EventKind enumerates the Table 1 event alphabet.
type EventKind uint8

// Event kinds.
const (
	EvCall  EventKind = iota // C(i)
	EvRead                   // R(i)
	EvWrite                  // W(i)
	EvThis                   // this
	EvArg                    // Arg(i)
	EvRet                    // ret
	EvCallF                  // call(f)
)

// Event is a single tracked event. N holds the slot index (EvCall), field
// offset (EvRead/EvWrite), argument index (EvArg), or callee address
// (EvCallF); it is zero for EvThis and EvRet.
type Event struct {
	Kind EventKind
	N    uint64
}

// String renders the event in the paper's notation.
func (e Event) String() string {
	switch e.Kind {
	case EvCall:
		return fmt.Sprintf("C(%d)", e.N)
	case EvRead:
		return fmt.Sprintf("R(%d)", e.N)
	case EvWrite:
		return fmt.Sprintf("W(%d)", e.N)
	case EvThis:
		return "this"
	case EvArg:
		return fmt.Sprintf("Arg(%d)", e.N)
	case EvRet:
		return "ret"
	case EvCallF:
		return fmt.Sprintf("call(0x%x)", e.N)
	}
	return "?"
}

// Tracelet is a bounded-length event sequence.
type Tracelet []Event

// String renders the tracelet as "e1; e2; ...".
func (t Tracelet) String() string {
	s := ""
	for i, e := range t {
		if i > 0 {
			s += "; "
		}
		s += e.String()
	}
	return s
}

// StructEvent is a structural observation on one object: a vtable install
// (Install=true: VT stored at object offset Off) or a direct call with the
// object as receiver (Callee).
type StructEvent struct {
	Install bool
	Off     int32
	VT      uint64
	Callee  uint64
}

// ObjStruct is the ordered structural observation sequence of one abstract
// object within one function.
type ObjStruct struct {
	// Fn is the entry address of the observing function.
	Fn uint64
	// EntryThis marks the object that arrived as the function's receiver.
	EntryThis bool
	// Events in program order along one execution path.
	Events []StructEvent
}

// Config bounds the symbolic execution.
type Config struct {
	// MaxPaths caps explored paths per function.
	MaxPaths int
	// MaxSteps caps instructions per path.
	MaxSteps int
	// MaxUnroll caps how many times each conditional back-edge may be taken
	// on one path.
	MaxUnroll int
	// Window is the tracelet length bound (the paper uses 7).
	Window int
	// MaxTraceLen caps the raw per-object event sequence length.
	MaxTraceLen int
	// Pool, when non-nil, lends the per-function symbolic executions
	// helper goroutines from a shared worker pool (see internal/pool); nil
	// runs the extraction serially. Functions are mutually independent
	// (each executor sees only its own function), the per-function results
	// land in index-owned slots, and the merge walks them in function
	// order, so the Result is byte-identical for every pool capacity.
	Pool *pool.Shared
}

// DefaultConfig returns the paper-calibrated bounds.
func DefaultConfig() Config {
	return Config{MaxPaths: 64, MaxSteps: 512, MaxUnroll: 2, Window: 7, MaxTraceLen: 128}
}

// WithDefaults returns the config with unset (zero) bounds replaced by the
// paper defaults, exactly as Extract resolves them. Snapshot fingerprints
// hash the resolved values, so an explicit default and an unset field
// produce the same cache key. Pool is not a bound and stays as-is.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxPaths <= 0 {
		c.MaxPaths = d.MaxPaths
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = d.MaxSteps
	}
	if c.MaxUnroll <= 0 {
		c.MaxUnroll = d.MaxUnroll
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.MaxTraceLen <= 0 {
		c.MaxTraceLen = d.MaxTraceLen
	}
	return c
}

// Result is the extractor output.
type Result struct {
	// PerType maps vtable address to the tracelet multiset TT(t).
	PerType map[uint64][]Tracelet
	// RawPerType maps vtable address to the deduplicated pre-windowing
	// event sequences (Fig. 7 material).
	RawPerType map[uint64][][]Event
	// Structs are the structural observations for §5.
	Structs []ObjStruct
	// FnVTables maps function entry to the vtables containing it.
	FnVTables map[uint64][]uint64
}

// EntryThisVT is the sentinel "vtable" of segments observed on a
// function's receiver object before any install: the merge attributes
// them to every vtable containing the function.
const EntryThisVT = ^uint64(0)

// Segment is one typed event run of an abstract object within a function:
// the behavioral events observed while the object's primary vtable was
// VT. VT is a discovered vtable address or EntryThisVT.
type Segment struct {
	VT     uint64
	Events []Event
}

// FnExtraction is one function's complete extractor output — the unit of
// function-granular snapshot reuse. It depends only on the function's own
// body plus the cross-function inputs ContextDigest hashes, so two
// extractions of a byte-identical function under an identical context are
// deep-equal, and a restored bundle merges exactly like a fresh one.
type FnExtraction struct {
	// Entry is the function's entry address.
	Entry uint64
	// Segments holds the function's typed event runs, deduplicated per
	// (VT, content) in first-observation order — the order the serial
	// merge consumes.
	Segments []Segment
	// Structs are the structural observations recorded by this function
	// (ObjStruct.Fn == Entry on every element), deduplicated.
	Structs []ObjStruct
}

// ContextDigest hashes the symbolic executor's only cross-function
// inputs: the function entry table, the import table, and the discovered
// vtable set (addresses and slot contents). A per-function extraction is
// reusable across binary versions exactly when the function's own content
// digest (image.FunctionDigest) and this context digest both match —
// everything else an executor reads is local to the function body. Rodata
// is deliberately absent: the executor never reads it directly, and the
// part that matters (vtables) is hashed post-discovery.
func ContextDigest(img *image.Image, vts []*vtable.VTable) [32]byte {
	h := sha256.New()
	var b [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	writeU64(uint64(len(img.Entries)))
	for _, e := range img.Entries {
		writeU64(e)
	}
	addrs := make([]uint64, 0, len(img.Imports))
	for a := range img.Imports {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	writeU64(uint64(len(addrs)))
	for _, a := range addrs {
		writeU64(a)
		name := img.Imports[a]
		writeU64(uint64(len(name)))
		h.Write([]byte(name))
	}
	writeU64(uint64(len(vts)))
	for _, v := range vts {
		writeU64(v.Addr)
		writeU64(uint64(len(v.Slots)))
		for _, f := range v.Slots {
			writeU64(f)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Extract runs the symbolic execution over every function of the image.
func Extract(img *image.Image, fns []*ir.Function, vts []*vtable.VTable, cfg Config) *Result {
	res, _ := ExtractContext(context.Background(), img, fns, vts, cfg)
	return res
}

// ExtractContext is Extract with cancellation: when ctx is canceled the
// fan-out stops starting new per-function executions, drains the running
// ones, and returns ctx.Err() with a nil Result.
func ExtractContext(ctx context.Context, img *image.Image, fns []*ir.Function, vts []*vtable.VTable, cfg Config) (*Result, error) {
	exts, err := ExtractFunctions(ctx, img, fns, vts, cfg, nil)
	if err != nil {
		return nil, err
	}
	return MergeFunctions(exts, vts, cfg), nil
}

// ExtractFunctions produces one FnExtraction per function. Functions are
// mutually independent, so the symbolic executions fan out over the
// worker pool into index-owned slots. When reuse is non-nil it is
// consulted first for every index; a non-nil bundle (typically restored
// from a prior version's snapshot) is adopted verbatim and the function's
// execution is skipped — the incremental lane's whole saving. reuse must
// be safe for concurrent calls with distinct indices.
func ExtractFunctions(ctx context.Context, img *image.Image, fns []*ir.Function, vts []*vtable.VTable, cfg Config, reuse func(i int) *FnExtraction) ([]*FnExtraction, error) {
	cfg = cfg.withDefaults()
	// Name the fan-out for trace spans; free unless the context carries a
	// tracing bus.
	ctx = obs.WithRegion(ctx, obs.BusFrom(ctx), "tracelets")
	vtSet := map[uint64]bool{}
	fnVTables := map[uint64][]uint64{}
	for _, v := range vts {
		vtSet[v.Addr] = true
		for _, f := range v.Slots {
			fnVTables[f] = append(fnVTables[f], v.Addr)
		}
	}
	exts := make([]*FnExtraction, len(fns))
	if err := pool.ForEach(ctx, cfg.Pool, len(fns), func(i int) {
		if reuse != nil {
			if b := reuse(i); b != nil {
				exts[i] = b
				return
			}
		}
		ex := &executor{
			img: img, fn: fns[i], cfg: cfg, vtSet: vtSet,
			thisTypes: fnVTables[fns[i].Entry],
		}
		ex.run()
		exts[i] = ex.extraction()
	}); err != nil {
		return nil, err
	}
	return exts, nil
}

// MergeFunctions assembles per-function extractions into the extractor
// Result: a serial walk in function order, so the (order-sensitive)
// per-function deduplication and per-type attribution see the segments
// exactly as a serial extraction would. The Result is byte-identical
// whether each bundle was freshly executed or restored.
func MergeFunctions(exts []*FnExtraction, vts []*vtable.VTable, cfg Config) *Result {
	cfg = cfg.withDefaults()
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
	var key []byte
	for _, ext := range exts {
		// Deduplicate raw sequences per (object segment type, content);
		// bundles arrive pre-deduplicated, but restored data is re-checked
		// so a hand-edited snapshot can only lose segments, never multiply
		// them.
		seqSeen := map[string]bool{}
		for _, seg := range ext.Segments {
			key = appendSegmentKey(key[:0], seg.VT, seg.Events)
			if seqSeen[string(key)] || len(seg.Events) == 0 {
				continue
			}
			seqSeen[string(key)] = true
			types := []uint64{seg.VT}
			if seg.VT == EntryThisVT {
				types = res.FnVTables[ext.Entry]
			}
			for _, t := range types {
				res.RawPerType[t] = append(res.RawPerType[t], seg.Events)
				for _, tl := range windows(seg.Events, cfg.Window) {
					res.PerType[t] = append(res.PerType[t], tl)
				}
			}
		}
		for _, os := range ext.Structs {
			key = appendStructKey(key[:0], os)
			if !structSeen[string(key)] {
				structSeen[string(key)] = true
				res.Structs = append(res.Structs, os)
			}
		}
	}
	return res
}

// MergeFunctionsDelta produces the same Result MergeFunctions would,
// reusing a prior merge of the same function set in which only the
// functions marked changed differ. The caller must guarantee alignment:
// exts and priorFns describe the same entries and vts is unchanged (the
// incremental lane certifies both with the extraction-context digest).
//
// The merge is separable by type: every dedup key carries the segment's
// type (or the struct's function), so a type's tracelet lists depend only
// on the segments attributed to it, in function order. A type is affected
// when any changed function attributes a segment to it in either version;
// every other type's lists are adopted from the prior merge verbatim, and
// only affected types are rebuilt. The affected set is returned so
// downstream consumers can scope their own invalidation to it.
func MergeFunctionsDelta(exts []*FnExtraction, changed []bool, priorFns map[uint64]*FnExtraction, prior *Result, vts []*vtable.VTable, cfg Config) (*Result, map[uint64]bool) {
	cfg = cfg.withDefaults()
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
	affected := map[uint64]bool{}
	mark := func(ext *FnExtraction) {
		if ext == nil {
			return
		}
		for _, seg := range ext.Segments {
			if seg.VT == EntryThisVT {
				for _, t := range res.FnVTables[ext.Entry] {
					affected[t] = true
				}
			} else {
				affected[seg.VT] = true
			}
		}
	}
	for i, ext := range exts {
		if changed[i] {
			mark(ext)
			mark(priorFns[ext.Entry])
		}
	}
	for t, tls := range prior.PerType {
		if !affected[t] {
			res.PerType[t] = tls
		}
	}
	for t, seqs := range prior.RawPerType {
		if !affected[t] {
			res.RawPerType[t] = seqs
		}
	}
	priorStructs := map[uint64][]ObjStruct{}
	for _, os := range prior.Structs {
		priorStructs[os.Fn] = append(priorStructs[os.Fn], os)
	}
	var key []byte
	for i, ext := range exts {
		// Rebuild the affected types' lists. Restricting the scan to
		// affected-type segments cannot change dedup outcomes: the keys
		// include the type, so skipped segments never collide with kept
		// ones.
		var seqSeen map[string]bool
		for _, seg := range ext.Segments {
			types := []uint64{seg.VT}
			if seg.VT == EntryThisVT {
				types = res.FnVTables[ext.Entry]
			}
			hit := false
			for _, t := range types {
				if affected[t] {
					hit = true
					break
				}
			}
			if !hit || len(seg.Events) == 0 {
				continue
			}
			key = appendSegmentKey(key[:0], seg.VT, seg.Events)
			if seqSeen[string(key)] {
				continue
			}
			if seqSeen == nil {
				seqSeen = map[string]bool{}
			}
			seqSeen[string(key)] = true
			for _, t := range types {
				if !affected[t] {
					continue
				}
				res.RawPerType[t] = append(res.RawPerType[t], seg.Events)
				for _, tl := range windows(seg.Events, cfg.Window) {
					res.PerType[t] = append(res.PerType[t], tl)
				}
			}
		}
		// Structs dedup by (function, content), so an unchanged function's
		// structs are exactly its slice of the prior merge.
		if !changed[i] {
			res.Structs = append(res.Structs, priorStructs[ext.Entry]...)
			continue
		}
		structSeen := map[string]bool{}
		for _, os := range ext.Structs {
			key = appendStructKey(key[:0], os)
			if !structSeen[string(key)] {
				structSeen[string(key)] = true
				res.Structs = append(res.Structs, os)
			}
		}
	}
	return res, affected
}

// extraction converts a finished executor into its portable bundle,
// applying the same per-function deduplication the merge performs (the
// keys include the segment type, so deduplicating here then re-checking
// at merge time changes nothing).
func (ex *executor) extraction() *FnExtraction {
	out := &FnExtraction{Entry: ex.fn.Entry}
	var key []byte
	seqSeen := map[string]bool{}
	for _, seg := range ex.segments {
		if len(seg.events) == 0 {
			continue
		}
		key = appendSegmentKey(key[:0], seg.vt, seg.events)
		if seqSeen[string(key)] {
			continue
		}
		seqSeen[string(key)] = true
		out.Segments = append(out.Segments, Segment{VT: seg.vt, Events: seg.events})
	}
	structSeen := map[string]bool{}
	for _, os := range ex.structs {
		key = appendStructKey(key[:0], os)
		if structSeen[string(key)] {
			continue
		}
		structSeen[string(key)] = true
		out.Structs = append(out.Structs, os)
	}
	return out
}

// windows splits a sequence into tracelets of length at most w (sliding
// window, stride 1; shorter sequences stay whole).
func windows(seq []Event, w int) []Tracelet {
	if len(seq) <= w {
		return []Tracelet{Tracelet(seq)}
	}
	out := make([]Tracelet, 0, len(seq)-w+1)
	for i := 0; i+w <= len(seq); i++ {
		out = append(out, Tracelet(seq[i:i+w]))
	}
	return out
}

// appendSegmentKey appends the dedup key of a (type, event sequence)
// segment to dst: vt, then each event's kind and operand, all fixed-width,
// so distinct segments always get distinct keys.
func appendSegmentKey(dst []byte, vt uint64, evs []Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, vt)
	for _, e := range evs {
		dst = append(dst, byte(e.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, e.N)
	}
	return dst
}

// appendStructKey appends the fixed-width dedup key of a structural
// observation sequence to dst.
func appendStructKey(dst []byte, os ObjStruct) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, os.Fn)
	dst = appendBool(dst, os.EntryThis)
	for _, e := range os.Events {
		dst = appendBool(dst, e.Install)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Off))
		dst = binary.LittleEndian.AppendUint64(dst, e.VT)
		dst = binary.LittleEndian.AppendUint64(dst, e.Callee)
	}
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Symbolic values -------------------------------------------------------------

type vkind uint8

const (
	vUnknown vkind = iota
	vObj           // an abstract object; obj = id
	vVt            // address of a discovered vtable; n = address
	vFn            // address of a function; n = address
	vVptr          // value loaded from an object's vtable-pointer slot; obj, n = object offset of the slot
	vSlotFn        // value loaded from a vtable pointer at slot index; obj, n = slot index
	vNum           // opaque scalar
)

type val struct {
	kind vkind
	obj  int
	n    uint64
}

// entryThisType marks segments of the function's receiver object before any
// install: they are attributed to every vtable containing the function.
const entryThisType = EntryThisVT

// untyped marks segments of an object not yet associated with a vtable.
const untypedType = uint64(0)

// segment is a run of events on one object while it has one type.
type segment struct {
	obj    int
	vt     uint64 // vtable address, entryThisType, or untypedType
	events []Event
}

// objState is the per-path mutable state of one object.
type objState struct {
	// primary is the currently installed primary vtable (offset 0), or
	// entryThisType/untypedType.
	primary uint64
	// seg indexes the object's current segment in executor order.
	seg int
}

type state struct {
	pc    int
	steps int
	regs  [ir.NumRegs]val
	objs  map[int]objState
	// brTaken counts taken-edge traversals per branch instruction index.
	brTaken map[int]int
	// segments owned by this path (index into path-local slice).
	segments []segment
	// structs: per-object structural event logs (keyed by object id).
	structs map[int][]StructEvent
	// entryThisObj is the id of the receiver object, or -1.
	entryThisObj int
	nextObj      int
}

func (s *state) clone() *state {
	c := &state{
		pc: s.pc, steps: s.steps, regs: s.regs,
		objs:         make(map[int]objState, len(s.objs)),
		brTaken:      make(map[int]int, len(s.brTaken)),
		segments:     make([]segment, len(s.segments)),
		structs:      make(map[int][]StructEvent, len(s.structs)),
		entryThisObj: s.entryThisObj,
		nextObj:      s.nextObj,
	}
	for k, v := range s.objs {
		c.objs[k] = v
	}
	for k, v := range s.brTaken {
		c.brTaken[k] = v
	}
	for i, seg := range s.segments {
		c.segments[i] = segment{obj: seg.obj, vt: seg.vt, events: append([]Event(nil), seg.events...)}
	}
	for k, v := range s.structs {
		c.structs[k] = append([]StructEvent(nil), v...)
	}
	return c
}

type executor struct {
	img       *image.Image
	fn        *ir.Function
	cfg       Config
	vtSet     map[uint64]bool
	thisTypes []uint64

	paths    int
	segments []segment
	structs  []ObjStruct
}

func (ex *executor) run() {
	init := &state{pc: 0, objs: map[int]objState{}, brTaken: map[int]int{},
		structs: map[int][]StructEvent{}, entryThisObj: -1}
	if len(ex.thisTypes) > 0 {
		// The receiver of a virtual function is a typed object (§3.2).
		id := init.newObj()
		init.entryThisObj = id
		init.objs[id] = objState{primary: entryThisType, seg: -1}
		init.regs[ir.RegThis] = val{kind: vObj, obj: id}
	}
	stack := []*state{init}
	for len(stack) > 0 && ex.paths < ex.cfg.MaxPaths {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ex.step(st, &stack)
	}
}

func (s *state) newObj() int {
	id := s.nextObj
	s.nextObj++
	return id
}

// emit appends a behavioral event to the object's current segment.
func (s *state) emit(cfg Config, objID int, e Event) {
	os, ok := s.objs[objID]
	if !ok || os.primary == untypedType {
		return
	}
	if os.seg < 0 {
		s.segments = append(s.segments, segment{obj: objID, vt: os.primary})
		os.seg = len(s.segments) - 1
		s.objs[objID] = os
	}
	seg := &s.segments[os.seg]
	if len(seg.events) < cfg.MaxTraceLen {
		seg.events = append(seg.events, e)
	}
}

// install records a vtable install at off on the object, retyping it when
// off is 0 (primary vtable pointer).
func (s *state) install(objID int, off int32, vt uint64) {
	s.structs[objID] = append(s.structs[objID], StructEvent{Install: true, Off: off, VT: vt})
	if off != 0 {
		return
	}
	os := s.objs[objID]
	os.primary = vt
	os.seg = -1 // next event opens a fresh segment under the new type
	s.objs[objID] = os
}

// clobberCallRegs models the calling convention: volatile registers do not
// survive a call.
func (s *state) clobberCallRegs() {
	s.regs[ir.RegThis] = val{}
	s.regs[ir.RegRet] = val{}
	for i := 0; i < ir.NumArgRegs; i++ {
		s.regs[ir.ArgReg(i)] = val{}
	}
	for r := ir.Reg(60); r < ir.NumRegs; r++ {
		s.regs[r] = val{}
	}
}

// finish flushes a completed path into the executor's results.
func (ex *executor) finish(s *state) {
	ex.paths++
	ex.segments = append(ex.segments, s.segments...)
	ids := make([]int, 0, len(s.structs))
	for id := range s.structs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ex.structs = append(ex.structs, ObjStruct{
			Fn:        ex.fn.Entry,
			EntryThis: id == s.entryThisObj,
			Events:    s.structs[id],
		})
	}
}

// step executes from s.pc until the path ends, pushing forked states.
func (ex *executor) step(s *state, stack *[]*state) {
	cfg := ex.cfg
	for {
		if s.pc < 0 || s.pc >= len(ex.fn.Insts) || s.steps >= cfg.MaxSteps {
			ex.finish(s)
			return
		}
		in := ex.fn.Insts[s.pc]
		s.steps++
		next := s.pc + 1
		switch in.Op {
		case ir.OpNop:
		case ir.OpMovImm:
			s.regs[in.Rd] = val{kind: vNum, n: in.Imm}
		case ir.OpMovReg:
			s.regs[in.Rd] = s.regs[in.Rs]
		case ir.OpArith:
			s.regs[in.Rd] = val{kind: vNum}
		case ir.OpLea:
			switch {
			case ex.vtSet[in.Imm]:
				s.regs[in.Rd] = val{kind: vVt, n: in.Imm}
			case ex.img.IsEntry(in.Imm):
				s.regs[in.Rd] = val{kind: vFn, n: in.Imm}
			default:
				s.regs[in.Rd] = val{kind: vNum, n: in.Imm}
			}
		case ir.OpLoad:
			base := s.regs[in.Rs]
			switch base.kind {
			case vObj:
				os := s.objs[base.obj]
				if in.Off == 0 || hasInstallAt(s.structs[base.obj], in.Off) {
					s.regs[in.Rd] = val{kind: vVptr, obj: base.obj, n: uint64(in.Off)}
				} else {
					if os.primary != untypedType {
						s.emit(cfg, base.obj, Event{Kind: EvRead, N: uint64(in.Off)})
					}
					s.regs[in.Rd] = val{}
				}
			case vVptr:
				s.regs[in.Rd] = val{kind: vSlotFn, obj: base.obj, n: uint64(in.Off) / 8}
			default:
				s.regs[in.Rd] = val{}
			}
		case ir.OpStore:
			base := s.regs[in.Rd]
			if base.kind == vObj {
				sv := s.regs[in.Rs]
				if sv.kind == vVt {
					s.install(base.obj, in.Off, sv.n)
				} else if in.Off != 0 {
					s.emit(cfg, base.obj, Event{Kind: EvWrite, N: uint64(in.Off)})
				}
			}
		case ir.OpCall:
			isAlloc := ex.img.Imports[in.Imm] == image.ImportAlloc
			if !isAlloc {
				// Receiver and argument events.
				if rv := s.regs[ir.RegThis]; rv.kind == vObj {
					s.structs[rv.obj] = append(s.structs[rv.obj], StructEvent{Callee: in.Imm})
					s.emit(cfg, rv.obj, Event{Kind: EvThis})
					s.emit(cfg, rv.obj, Event{Kind: EvCallF, N: in.Imm})
				}
				for i := 0; i < ir.NumArgRegs; i++ {
					if av := s.regs[ir.ArgReg(i)]; av.kind == vObj {
						s.emit(cfg, av.obj, Event{Kind: EvArg, N: uint64(i)})
						s.emit(cfg, av.obj, Event{Kind: EvCallF, N: in.Imm})
					}
				}
			}
			s.clobberCallRegs()
			if isAlloc {
				id := s.newObj()
				s.objs[id] = objState{primary: untypedType, seg: -1}
				s.regs[ir.RegRet] = val{kind: vObj, obj: id}
			}
		case ir.OpCallInd:
			t := s.regs[in.Rs]
			if t.kind == vSlotFn {
				s.emit(cfg, t.obj, Event{Kind: EvCall, N: t.n})
			}
			for i := 0; i < ir.NumArgRegs; i++ {
				if av := s.regs[ir.ArgReg(i)]; av.kind == vObj {
					if t.kind != vSlotFn || av.obj != t.obj {
						s.emit(cfg, av.obj, Event{Kind: EvArg, N: uint64(i)})
					}
				}
			}
			s.clobberCallRegs()
		case ir.OpRet:
			if rv := s.regs[ir.RegRet]; rv.kind == vObj {
				s.emit(cfg, rv.obj, Event{Kind: EvRet})
			}
			ex.finish(s)
			return
		case ir.OpJmp:
			idx := ex.fn.IndexOf(in.Imm)
			if idx < 0 || idx == s.pc {
				// Self-loop (noreturn stub) or invalid target: end path.
				ex.finish(s)
				return
			}
			next = idx
		case ir.OpBr:
			idx := ex.fn.IndexOf(in.Imm)
			if idx >= 0 {
				taken := s.brTaken[s.pc]
				backEdge := idx <= s.pc
				if !backEdge || taken < cfg.MaxUnroll {
					if ex.paths+len(*stack) < cfg.MaxPaths {
						forked := s.clone()
						forked.brTaken[s.pc] = taken + 1
						forked.pc = idx
						*stack = append(*stack, forked)
					}
				}
			}
			// Fallthrough continues on this state.
		}
		s.pc = next
	}
}

func hasInstallAt(evs []StructEvent, off int32) bool {
	for _, e := range evs {
		if e.Install && e.Off == off && off != 0 {
			return true
		}
	}
	return false
}
