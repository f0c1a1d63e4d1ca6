package slm_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/synth"
)

// analyzedImage is one input of the pipeline-level tests.
type analyzedImage struct {
	name string
	img  *image.Image
}

// analyzedImages builds the 19 Table 2 images and the synth grid.
func analyzedImages(t *testing.T) []analyzedImage {
	t.Helper()
	var out []analyzedImage
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, analyzedImage{b.Name, img})
	}
	for _, c := range bench.SynthGrid() {
		img, _, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, analyzedImage{c.Name, img})
	}
	return out
}

// encodedTracelets returns type t's tracelets as symbol sequences over
// res's alphabet, in extraction order.
func encodedTracelets(res *core.Result, sym map[objtrace.Event]int, t uint64) [][]int {
	var seqs [][]int
	for _, tl := range res.Tracelets.PerType[t] {
		seq := make([]int, len(tl))
		for i, e := range tl {
			seq[i] = sym[e]
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// symbols maps each event of res's alphabet to its symbol.
func symbols(res *core.Result) map[objtrace.Event]int {
	sym := make(map[objtrace.Event]int, len(res.Alphabet))
	for i, e := range res.Alphabet {
		sym[e] = i
	}
	return sym
}

// TestAnalyzedModelsMatchReference: every model the pipeline trains for
// the Table 2 images and the synth grid serializes byte for byte like the
// reference builder trained on the same type's tracelets, so the
// pipeline's snapshots and every distance are those of the reference.
func TestAnalyzedModelsMatchReference(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, in := range analyzedImages(t) {
		res, err := core.Analyze(in.img, cfg)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sym := symbols(res)
		for _, v := range res.VTables {
			f := res.Frozen[v.Addr]
			if f == nil {
				t.Fatalf("%s: type %#x has no model", in.name, v.Addr)
			}
			seqs := encodedTracelets(res, sym, v.Addr)
			want := slm.ReferenceModel(cfg.SLMDepth, len(res.Alphabet), seqs).AppendBinary(nil)
			if !bytes.Equal(f.AppendBinary(nil), want) {
				t.Fatalf("%s: type %#x: trained model differs from the reference", in.name, v.Addr)
			}
		}
	}
}

// TestFamilyRowsMatchPerWordKernel pins the gram-factored sweep to the
// per-word kernel on real analyses: the Table 2 images and the synth
// grid, default and fused ("slm,subtype") evidence, at workers 1 and 8.
// For every solved family it rebuilds the family word set (the distinct
// encoded tracelets of the members, in member order) and, through a
// calculator prepared as core's SLM/KL sweep prepares it, requires each
// member's gram-kernel row and cached distribution to equal
// Querier.LogProbWords over that set bit for bit. Under default evidence
// the pipeline's Dist is the SLM distance itself, so every entry must
// also equal the distance derived word by word.
func TestFamilyRowsMatchPerWordKernel(t *testing.T) {
	images := analyzedImages(t)
	for _, fused := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			cfg := core.DefaultConfig()
			cfg.Subtype, cfg.Workers = fused, workers
			for _, in := range images {
				res, err := core.Analyze(in.img, cfg)
				if err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
				label := fmt.Sprintf("%s subtype=%v workers=%d", in.name, fused, workers)
				checkFamilyRows(t, label, res, !fused)
			}
		}
	}
}

// checkFamilyRows runs TestFamilyRowsMatchPerWordKernel's checks on one
// analysis; withDist adds the Dist check.
func checkFamilyRows(t *testing.T, label string, res *core.Result, withDist bool) {
	t.Helper()
	sym := symbols(res)
	for _, fr := range res.Families {
		if len(fr.Types) < 2 {
			continue
		}
		seen := map[string]bool{}
		var words [][]int
		models := make([]*slm.Frozen, len(fr.Types))
		for i, ty := range fr.Types {
			models[i] = res.Frozen[ty]
			for _, w := range encodedTracelets(res, sym, ty) {
				if k := fmt.Sprint(w); !seen[k] {
					seen[k] = true
					words = append(words, w)
				}
			}
		}
		calc := slm.NewDistanceCalculator(slm.MetricKL, slm.Words32(words))
		calc.Reserve(models)
		for _, m := range models {
			calc.Precompute(m)
		}
		perWord := make(map[uint64][]float64, len(models))
		for i, m := range models {
			want := m.NewQuerier().LogProbWords(words, nil)
			perWord[fr.Types[i]] = want
			got := slm.GramRow(calc, m)
			for w := range want {
				if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
					t.Fatalf("%s: type %#x word %d: gram row %v, per-word %v", label, fr.Types[i], w, got[w], want[w])
				}
			}
			if !slm.CachedEntryIs(calc, m, want) {
				t.Fatalf("%s: type %#x: cached distribution differs from the per-word kernel's", label, fr.Types[i])
			}
		}
		if !withDist {
			continue
		}
		for _, c := range fr.Types {
			for _, p := range res.Structural.PossibleParents[c] {
				got, ok := res.Dist[[2]uint64{p, c}]
				if !ok {
					t.Fatalf("%s: no Dist for admissible pair %#x→%#x", label, p, c)
				}
				want := slm.ReferenceKL(perWord[p], perWord[c])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Dist %#x→%#x = %v, per-word %v", label, p, c, got, want)
				}
			}
		}
	}
}

// deepImages builds the benchmark harness's deep programs: the first four
// generator seeds whose three-family, depth-5, branch-4 random program
// has 100 to 120 classes.
func deepImages(t testing.TB) []analyzedImage {
	t.Helper()
	var out []analyzedImage
	for gen := int64(1); len(out) < 4; gen++ {
		p := synth.DefaultParams(gen)
		p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 4
		prog, _ := synth.Generate(p)
		if k := len(prog.Classes); k < 100 || k > 120 {
			continue
		}
		img, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("compile %s: %v", prog.Name, err)
		}
		out = append(out, analyzedImage{fmt.Sprintf("deep gen %d", gen), img.Strip()})
	}
	return out
}

// TestFamilyGramTablesMatchReference: on every family word set the
// pipeline measures — the Table 2 images, the synth grid, the four
// rockperf-shaped deep programs, and a patched deep/opt image on the
// incremental lane — the gram table holds the same gram ids and rows as
// the varint-keyed Go map it replaced.
func TestFamilyGramTablesMatchReference(t *testing.T) {
	cfg := core.DefaultConfig()
	check := func(label string, res *core.Result) {
		t.Helper()
		for _, fam := range res.Structural.Families {
			if !slm.SameGramTable(cfg.SLMDepth, res.FamilyWords(fam)) {
				t.Fatalf("%s: family %#x: gram table differs from the varint reference", label, fam)
			}
		}
	}
	for _, in := range append(analyzedImages(t), deepImages(t)...) {
		res, err := core.Analyze(in.img, cfg)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		check(in.name, res)
	}

	var base *image.Image
	for _, c := range bench.SynthGrid() {
		if c.Name == "deep/opt" {
			img, _, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			base = img
		}
	}
	cands := bench.PatchableFunctions(base)
	patched := base.Strip()
	if err := bench.PatchFunction(patched, cands[len(cands)/2]); err != nil {
		t.Fatal(err)
	}
	incr := cfg
	incr.CacheDir = t.TempDir()
	for _, img := range []*image.Image{base, patched} {
		res, err := core.Analyze(img, incr)
		if err != nil {
			t.Fatal(err)
		}
		if img == patched {
			if res.Incremental == nil {
				t.Fatal("patched deep/opt did not take the incremental lane")
			}
			check("patched deep/opt (incremental)", res)
		}
	}
}

// BenchmarkGramTable interns the grams of one deep family's word set —
// the largest family of the first deep program, at the default depth —
// as the distance sweep does once per family and model depth.
func BenchmarkGramTable(b *testing.B) {
	cfg := core.DefaultConfig()
	res, err := core.Analyze(deepImages(b)[0].img, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var words [][]int32
	for _, fam := range res.Structural.Families {
		if w := res.FamilyWords(fam); len(w) > len(words) {
			words = w
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		gramSink = slm.InternGrams(cfg.SLMDepth, words)
	}
}

// gramSink keeps BenchmarkGramTable's result live.
var gramSink int
