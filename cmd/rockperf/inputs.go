package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/cpp"
	"repro/internal/image"
	"repro/internal/synth"
)

// deepPrograms returns the deep programs of deep-cold, deep-incr and the
// rockd-mix batch stream: three random-tree families of depth 5 and up
// to four children per class — about 110 types and 600 functions, where
// the SLM sweep dominates and an analysis is short enough for a hundred
// ops in a run. They are the first n generator seeds whose program has
// 100 to 120 classes. The programs are fixed, not drawn from the
// workload seed: tree sizes vary so much between generator seeds that
// the cost of a seeded draw would swamp any code change. The seed varies
// them through relabel instead.
func deepPrograms(n int) []*cpp.Program {
	var out []*cpp.Program
	for gen := int64(1); len(out) < n; gen++ {
		p := synth.DefaultParams(gen)
		p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 4
		prog, _ := synth.Generate(p)
		if k := len(prog.Classes); k >= 100 && k <= 120 {
			out = append(out, prog)
		}
	}
	return out
}

// smallProgram is rockd-mix's first-seen image: the default synthetic
// program (eight small families).
func smallProgram() *cpp.Program {
	prog, _ := synth.Generate(synth.DefaultParams(7))
	return prog
}

// relabel compiles prog under a new name after shuffling its class
// declaration order (parents still first) with seed. The binary gets a
// new vtable layout, new addresses and a new digest; the hierarchy and
// the work an analysis does stay the same. It returns the stripped image
// and the ground truth.
func relabel(prog *cpp.Program, name string, seed int64) (*image.Image, *image.Metadata, error) {
	rng := rand.New(rand.NewSource(seed))
	placed := map[string]bool{}
	rest := append([]*cpp.Class(nil), prog.Classes...)
	order := make([]*cpp.Class, 0, len(rest))
	for len(rest) > 0 {
		var ready []int
		for i, c := range rest {
			ok := true
			for _, b := range c.Bases {
				ok = ok && placed[b]
			}
			if ok {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			return nil, nil, fmt.Errorf("%s: class bases form a cycle", prog.Name)
		}
		i := ready[rng.Intn(len(ready))]
		placed[rest[i].Name] = true
		order = append(order, rest[i])
		rest = append(rest[:i], rest[i+1:]...)
	}
	p := *prog
	p.Name = name
	p.Classes = order
	img, err := compiler.Compile(&p, compiler.DefaultOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return img.Strip(), img.Meta, nil
}

// table2Inputs builds the 19 Table 2 images with their ground truth and
// references, scored over each benchmark's counted types.
func table2Inputs(env *runEnv) ([]*bench.Benchmark, []*image.Metadata, []*input, error) {
	benches := bench.All()
	metas := make([]*image.Metadata, len(benches))
	ins := make([]*input, len(benches))
	for i, b := range benches {
		img, meta, err := b.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		var counted []uint64
		for _, name := range b.Counted {
			tm := meta.TypeByName(name)
			if tm == nil {
				return nil, nil, nil, fmt.Errorf("%s: counted type %q not emitted", b.Name, name)
			}
			counted = append(counted, tm.VTable)
		}
		metas[i] = meta
		if ins[i], err = newInput(b.Name, img, meta, counted, env.workers); err != nil {
			return nil, nil, nil, err
		}
	}
	return benches, metas, ins, nil
}
