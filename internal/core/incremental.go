// Incremental re-analysis: the version-diff warm lane. When the exact
// snapshot misses (the image or the configuration changed), the lane
// diffs the run against a prior snapshot — the image's own cache slot
// written under another configuration, a prior version explicitly named
// (Config.IncrementalFrom), or one auto-discovered in the cache directory
// by hashed module name — and reuses every artifact whose inputs provably
// did not change:
//
//	function bundles   reused when the function's content digest
//	                   (image.FunctionDigest) and the extraction context
//	                   digest (objtrace.ContextDigest) both match, under a
//	                   matching extraction fingerprint
//	frozen models      reused when the type's training-input digest
//	                   (TypeKey: alphabet size + the encoded tracelet
//	                   sequence) matches, additionally under a matching
//	                   models fingerprint
//	family solutions   restored verbatim when every member's TypeKey and
//	                   candidate-parent set match and the prior snapshot
//	                   holds every distance entry the sweep needs,
//	                   additionally under a matching hierarchy
//	                   fingerprint
//
// Each gate certifies bit-equality of the reused artifact's inputs, so
// the lane never changes the Result — only how much of it is recomputed.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/objtrace"
	"repro/internal/obs"
	"repro/internal/slm"
	"repro/internal/snapshot"
)

// incrState carries the prior snapshot the lane diffs against, plus what
// the current run needs to grade its validity.
type incrState struct {
	prior *snapshot.Snapshot
	key   snapshot.Key
}

// modelsOK reports whether prior frozen models may be adopted: the
// fingerprint chain must match through the models section.
func (st *incrState) modelsOK() bool {
	return st.key.MatchLevel(st.prior.Key) >= snapshot.LevelModels
}

// hierarchyOK reports whether prior family solutions may be restored.
func (st *incrState) hierarchyOK() bool {
	return st.key.MatchLevel(st.prior.Key) >= snapshot.LevelHierarchy
}

// priorUsable is the lane's engagement gate: the prior's extraction
// fingerprint must match the current configuration.
func priorUsable(s *snapshot.Snapshot, key snapshot.Key) bool {
	return key.MatchLevel(s.Key) >= snapshot.LevelExtraction
}

// findPrior locates the snapshot to diff against: own (the image's cache
// slot, already loaded under a key that differs from the run's) when its
// extraction fingerprint matches, else the explicit IncrementalFrom, else
// a cached sibling version. An explicit IncrementalFrom that cannot be
// loaded is an error (the caller asked for a specific file); one that
// loads but is unusable, or is written in another format version,
// degrades to nil (cold): a snapshot is a cache. Auto-discovery scans the
// cache directory's headers for prior versions of the same image family —
// same hashed name, same extraction fingerprint, different content digest
// — and picks the candidate whose function-digest table overlaps the
// current image most (ties go to the lexicographically first file;
// os.ReadDir returns sorted names).
func (r *Result) findPrior(cfg Config, key snapshot.Key, own *snapshot.Snapshot) (*snapshot.Snapshot, error) {
	if own != nil && priorUsable(own, key) {
		return own, nil
	}
	if cfg.IncrementalFrom != "" {
		s, err := snapshot.Load(cfg.IncrementalFrom)
		if errors.Is(err, snapshot.ErrVersion) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("core: incremental-from %s: %w", cfg.IncrementalFrom, err)
		}
		if !priorUsable(s, key) {
			return nil, nil
		}
		return s, nil
	}
	if cfg.CacheDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		return nil, nil
	}
	nameHash := snapshot.HashName(r.Image.Name)
	cur := make(map[[32]byte]bool, len(r.Image.Entries))
	for _, d := range r.functionDigests() {
		cur[d] = true
	}
	var best *snapshot.Snapshot
	bestOverlap := -1
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rsnap") {
			continue
		}
		p := filepath.Join(cfg.CacheDir, e.Name())
		h, err := snapshot.ReadHeader(p)
		if err != nil || h.NameHash != nameHash || h.Key.Digest == key.Digest ||
			key.MatchLevel(h.Key) < snapshot.LevelExtraction {
			continue
		}
		s, err := snapshot.Load(p)
		if err != nil || !priorUsable(s, key) {
			continue
		}
		overlap := 0
		for i := range s.Funcs.Funcs {
			if cur[s.Funcs.Funcs[i].Digest] {
				overlap++
			}
		}
		if overlap > bestOverlap {
			best, bestOverlap = s, overlap
		}
	}
	return best, nil
}

// functionDigests memoizes the image's per-function digest table.
func (r *Result) functionDigests() [][32]byte {
	if r.fnDigests == nil {
		r.fnDigests = r.Image.FunctionDigests()
	}
	return r.fnDigests
}

// extractTracelets runs the tracelets stage: fan out the per-function
// symbolic executions — short-circuiting functions whose bundle the prior
// snapshot already holds — then merge serially in function order. The
// merge consumes reused and fresh bundles identically, so the Tracelets
// result is byte-for-byte what a cold run produces.
func (r *Result) extractTracelets(ctx context.Context, cfg Config) error {
	r.fnCtxDigest = objtrace.ContextDigest(r.Image, r.VTables)
	var reuse func(int) *objtrace.FnExtraction
	var plan []*objtrace.FnExtraction
	if r.incr != nil {
		hits := 0
		if r.incr.prior.Funcs.ContextDigest == r.fnCtxDigest {
			prior := r.incr.prior.Funcs
			byDigest := make(map[[32]byte]*objtrace.FnExtraction, len(prior.Funcs))
			for i := range prior.Funcs {
				byDigest[prior.Funcs[i].Digest] = &prior.Funcs[i].Ext
			}
			digests := r.functionDigests()
			plan = make([]*objtrace.FnExtraction, len(r.Funcs))
			for i, fn := range r.Funcs {
				// The digest covers the entry address, so a match implies
				// the same function at the same place; the Entry check is a
				// pure collision guard.
				if b := byDigest[digests[i]]; b != nil && b.Entry == fn.Entry {
					plan[i] = b
					hits++
				}
			}
			if hits > 0 {
				reuse = func(i int) *objtrace.FnExtraction { return plan[i] }
			}
		}
		r.Incremental.FnHits = hits
		r.Incremental.FnMisses = len(r.Funcs) - hits
		cfg.Obs.Add(obs.CntFnDigestHits, int64(r.Incremental.FnHits))
		cfg.Obs.Add(obs.CntFnDigestMisses, int64(r.Incremental.FnMisses))
	}
	exts, err := objtrace.ExtractFunctions(ctx, r.Image, r.Funcs, r.VTables, cfg.pool, reuse)
	if err != nil {
		return err
	}
	r.fnExts = exts
	// With a matching extraction context (same entries, imports, and
	// vtables), the merge is separable by type: only types touched by a
	// changed function rebuild, everything else adopts the prior lists.
	var prior *objtrace.Prior
	if reuse != nil && r.incr.prior.Tracelets != nil {
		prior = &objtrace.Prior{
			Result:  r.incr.prior.Tracelets,
			Fns:     make(map[uint64]*objtrace.FnExtraction, len(r.incr.prior.Funcs.Funcs)),
			Changed: make([]bool, len(exts)),
		}
		for i := range exts {
			prior.Changed[i] = plan[i] == nil
		}
		for i := range r.incr.prior.Funcs.Funcs {
			b := &r.incr.prior.Funcs.Funcs[i]
			prior.Fns[b.Ext.Entry] = &b.Ext
		}
	}
	r.Tracelets, r.affected = objtrace.MergeFunctions(exts, r.VTables, cfg.Window, prior)
	return nil
}

// computeTypeKeys digests each type's exact training input, read from the
// encoded tracelet table: the shared alphabet size plus the type's
// tracelets as encoded symbol sequences, in extraction order. Two runs
// agreeing on a type's key would train bit-identical models (training
// consumes nothing else under a fixed models fingerprint), which is what
// licenses adopting the prior frozen model. Note this is deliberately not
// the digest set of contributing functions: the encoding depends on the
// global symbol numbering, so a patch anywhere in the binary that
// disturbs the alphabet must — and does — change every type's key.
func (r *Result) computeTypeKeys() map[uint64][32]byte {
	if r.typeKeys != nil {
		return r.typeKeys
	}
	// Delta shortcut: a type outside the affected set has byte-identical
	// tracelet lists, so under an unchanged alphabet its key is the prior
	// key — no re-encoding or hashing. An affected type (or any type when
	// the alphabet moved or no delta ran) hashes from scratch.
	var priorKeys map[uint64][32]byte
	if r.incr != nil && r.affected != nil &&
		slices.Equal(r.Alphabet, r.incr.prior.Alphabet) {
		priorKeys = r.incr.prior.Funcs.TypeKeys
	}
	r.encodeTracelets()
	out := make(map[uint64][32]byte, len(r.VTables))
	var buf []byte
	for _, v := range r.VTables {
		if !r.affected[v.Addr] {
			if pk, ok := priorKeys[v.Addr]; ok {
				out[v.Addr] = pk
				continue
			}
		}
		// The digest input: a tag, the alphabet size, then each tracelet's
		// length and symbols, every number a little-endian uint64.
		buf = append(buf[:0], "rocktk\x00"...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.Alphabet)))
		enc := r.enc[v.Addr]
		start := int32(0)
		for _, end := range enc.ends {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(end-start))
			for _, s := range enc.syms[start:end] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
			}
			start = end
		}
		out[v.Addr] = sha256.Sum256(buf)
	}
	r.typeKeys = out
	return out
}

// reusableModels returns the prior frozen models the lane may adopt: one
// per type whose TypeKey is unchanged, when the models fingerprint and
// the invalidation cap allow it. Nil when the lane is off.
func (r *Result) reusableModels() map[uint64]*slm.Frozen {
	if r.incr == nil || !r.incr.modelsOK() {
		return nil
	}
	prior := r.incr.prior
	keys := r.computeTypeKeys()
	out := map[uint64]*slm.Frozen{}
	for _, v := range r.VTables {
		if pk, ok := prior.Funcs.TypeKeys[v.Addr]; ok && pk == keys[v.Addr] {
			if f := prior.Frozen[v.Addr]; f != nil {
				out[v.Addr] = f
			}
		}
	}
	return out
}

// restoreFamilies fills outs[i] for every family whose prior solution is
// provably identical to what re-solving would produce, returning how many
// it restored. A family restores when the prior run had a family with the
// same members (in order), every member's TypeKey and candidate-parent
// set is unchanged, and the prior Dist table holds every entry the sweep
// would emit for it. Single-member families are left to analyzeFamily —
// their solve is O(1).
func (r *Result) restoreFamilies(outs []*familyOutcome) int {
	if r.incr == nil || !r.incr.hierarchyOK() {
		return 0
	}
	prior := r.incr.prior
	keys := r.computeTypeKeys()
	byTypes := make(map[string]*snapshot.Family, len(prior.Families))
	var key []byte
	for i := range prior.Families {
		key = appendAddrsKey(key[:0], prior.Families[i].Types)
		byTypes[string(key)] = &prior.Families[i]
	}
	restored := 0
	for i, fam := range r.Structural.Families {
		if len(fam) == 1 {
			continue
		}
		key = appendAddrsKey(key[:0], fam)
		pf := byTypes[string(key)]
		if pf == nil {
			continue
		}
		ok := true
		for _, t := range fam {
			pk, has := prior.Funcs.TypeKeys[t]
			if !has || pk != keys[t] ||
				!slices.Equal(prior.Structural.PossibleParents[t], r.Structural.PossibleParents[t]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		dist, ok := r.priorFamilyDist(fam, prior)
		if !ok {
			continue
		}
		parents := make(map[uint64]uint64, len(fam))
		for _, c := range fam {
			if p, ok := prior.Parents[c]; ok {
				parents[c] = p
			}
		}
		outs[i] = &familyOutcome{
			fr:      FamilyResult{Types: pf.Types, Weight: pf.Weight, Survivors: pf.Survivors},
			parents: parents,
			dist:    dist,
		}
		restored++
	}
	return restored
}

// appendAddrsKey appends the lookup key of a family's member list to dst:
// one fixed-width address after another, so distinct lists get distinct
// keys.
func appendAddrsKey(dst []byte, addrs []uint64) []byte {
	for _, a := range addrs {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	return dst
}

// priorFamilyDist collects from the prior snapshot exactly the distance
// entries the sweep would emit for this family: its admissible (parent,
// child) pairs. Any missing entry vetoes the restore.
func (r *Result) priorFamilyDist(fam []uint64, prior *snapshot.Snapshot) (map[[2]uint64]float64, bool) {
	out := map[[2]uint64]float64{}
	for _, c := range fam {
		for _, p := range r.Structural.PossibleParents[c] {
			d, ok := prior.Dist[[2]uint64{p, c}]
			if !ok {
				return nil, false
			}
			out[[2]uint64{p, c}] = d
		}
	}
	return out, true
}

// buildFnSection assembles the snapshot's function-granular section from
// the bundles the tracelets stage executed or reused, with fresh digests.
func (r *Result) buildFnSection() *snapshot.FnSection {
	digests := r.functionDigests()
	fs := &snapshot.FnSection{
		ContextDigest: r.fnCtxDigest,
		Funcs:         make([]snapshot.FnBundle, len(r.fnExts)),
		TypeKeys:      r.computeTypeKeys(),
	}
	for i, ext := range r.fnExts {
		fs.Funcs[i] = snapshot.FnBundle{Digest: digests[i], Ext: *ext}
	}
	return fs
}
