package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
)

// analyzeWith runs one image with or without the subtype evidence.
func analyzeWith(t *testing.T, label string, img *image.Image, workers int, subtype bool) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Subtype = subtype
	res, err := core.Analyze(img, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// resultHash digests everything the hierarchy solve decides: every Dist
// entry as float bits in sorted key order, every type's parent, every
// multi-parent choice, and each family's weight bits and survivor count.
func resultHash(res *core.Result) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	keys := make([][2]uint64, 0, len(res.Dist))
	for k := range res.Dist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		put(k[0], k[1], math.Float64bits(res.Dist[k]))
	}
	for _, v := range res.VTables {
		p, ok := res.Hierarchy.Parent(v.Addr)
		if !ok {
			p = math.MaxUint64
		}
		put(v.Addr, p)
	}
	multi := make([]uint64, 0, len(res.MultiParents))
	for t := range res.MultiParents {
		multi = append(multi, t)
	}
	sort.Slice(multi, func(i, j int) bool { return multi[i] < multi[j] })
	for _, t := range multi {
		put(t, uint64(len(res.MultiParents[t])))
		put(res.MultiParents[t]...)
	}
	for _, f := range res.Families {
		put(math.Float64bits(f.Weight))
		h.Write([]byte(f.Survivors.Count().String() + ";"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// assertProviderEquivalence pins both evidence configurations on one
// image: the default (SLM-only) run and the fused one must each be
// deep-equal across a serial and a contended worker count, and each must
// hash (resultHash) to its literal in want — {default, fused} — so a
// change that moves either configuration's scores fails here.
func assertProviderEquivalence(t *testing.T, label string, img *image.Image, want [2]string) {
	t.Helper()
	slm1 := analyzeWith(t, label+"/slm/w1", img, 1, false)
	slm8 := analyzeWith(t, label+"/slm/w8", img, 8, false)
	if !reflect.DeepEqual(slm1, slm8) {
		t.Errorf("%s: SLM-only result differs between workers 1 and 8", label)
	}
	fused1 := analyzeWith(t, label+"/fused/w1", img, 1, true)
	fused8 := analyzeWith(t, label+"/fused/w8", img, 8, true)
	if !reflect.DeepEqual(fused1, fused8) {
		t.Errorf("%s: fused result differs between workers 1 and 8", label)
	}
	for i, res := range []*core.Result{slm1, fused1} {
		if got := resultHash(res); got != want[i] {
			t.Errorf("%s: %s result hash = %s, want %s", label, [2]string{"default", "fused"}[i], got, want[i])
		}
	}
}

// TestProviderEquivalenceTable2 pins the refactor across the whole
// Table 2 suite.
func TestProviderEquivalenceTable2(t *testing.T) {
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		assertProviderEquivalence(t, b.Name, img, table2Hashes[b.Name])
	}
}

// TestProviderEquivalenceSynth extends the pin to the adversarial corner
// of the input space: every hostile configuration of the synth grid,
// where candidate sets are noisiest and the subtype scorer sees the most
// degenerate vtable structure.
func TestProviderEquivalenceSynth(t *testing.T) {
	ran := 0
	for _, c := range bench.SynthGrid() {
		if c.Friendly {
			continue
		}
		img, _, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		assertProviderEquivalence(t, c.Name, img, synthHashes[c.Name])
		ran++
	}
	if ran < 5 {
		t.Fatalf("only %d adversarial configs exercised, want >= 5", ran)
	}
}

// table2Hashes and synthHashes pin resultHash per image, {default,
// fused}.
var table2Hashes = map[string][2]string{
	"AntispyComplete": {
		"2eb7d7276397f0d6ba58452b4a9f311b3867ebefef3ada05235d70eddc83732a",
		"e8d10e48666ddcca69f4cde7553b0439312bd8872b24335fa676069f7bf1029c",
	},
	"bafprp": {
		"3c8618b638a92349e886340f5831602f7317fe108ba4ae0f5de95602e3e2be00",
		"dddff3077ce625b2099855dce906fd78e1b656c6caba7be2aee13783a996f7ab",
	},
	"cppcheck": {
		"affd9eb18ac69e8d110ecbc04599cafc542a0bf9d41e7d3154d292168e4957f1",
		"d26d36d730c19e6a1e6c391babeb4c0584f0fe3f65d293288073b8f35d1f20fe",
	},
	"MidiLib": {
		"f3a77b34c695d50245d94e13fa4b2e9df692daf228116d9683f7e445eee9384b",
		"edcb62d159e5ce6f035006545a45a9dd43d9eba3e1c8133277e39bba7ab9cd3d",
	},
	"patl": {
		"f16548a33a1f1dd0d26fbfda8edeb1c8e64c83b683eea0fa27278588348bc655",
		"4f5f51e41e1983fc3ee04cc8b0295fe417b2955bfc28eda26300f4a5a9c75959",
	},
	"pop3": {
		"3bfeb2c887bb8cf8a77a0df560616af4c7e7868b11726d47e805ffbc40c0507e",
		"c339dde50969ef5be3ff7d842ad79b8945f5600ad47c06a86d8147f772c9ea96",
	},
	"smtp": {
		"05d5b0d68c666f15d24a71a88bcb9bcd87691176c358d600f08767606ff4f497",
		"a232bbc6d584b831b1ac97fbe41041b76e8a843b159ef0e248f5fed2e0811ddb",
	},
	"tinyxml": {
		"3d425db2ccfdde210c02c6a6d2974a04095fa2de8bd760781f57f54adb54add6",
		"74cf89e83e65a90b76c6d8d2809399e6c5d81661122cc39cad74d49c67266233",
	},
	"tinyxmlSTL": {
		"f503e60d5de6c67a9733033bc2bdae534507c9c2c367595cac73ede36de02cce",
		"604d03abb1450795bc8f2fe39169aeaf5f79241a89c92c1b9a632bd2899a858b",
	},
	"yafe": {
		"9094d1a59eeb3bc7e0a168f87507d1bbc93d1cc3880ddbe8197ad1e20179bdc4",
		"3c928efaeeaaee9f9e9068f05a2e699c89d48c891b1634056f117c4a45ee445e",
	},
	"Analyzer": {
		"c9cb28822071657c75b84f866f3d7b5cc4acec09180ae314af5c143278e345db",
		"d6f3bba755c77ad5dd3b8f478848149bd7a1e959a77ef4f77aaf0dc5f382ca2e",
	},
	"CGridListCtrlEx": {
		"492edfbbb3c73a36fe1338a8748865cc6f63b67aff33c8957919db82e97aa809",
		"8bb545f8c3d3b6ed4dd151dd4b25907b6ce233f7c7f9323806eadb6ca2c67784",
	},
	"echoparams": {
		"144e5e8dfeb83d7bea1eb72fc5fa99965b166c06231a0c5ff60702571344483f",
		"ef0cadb4cb107cf866ce23eb4902b292153f4ab2349f92379794eea943badeb0",
	},
	"gperf": {
		"f64b86017a81a33fdca09316ef91109e6ad3b1fb095e494cf55019745e1722f1",
		"558799c26a44f2853501472e8b140c8b8f0840a00ed72684c5d445364fcf2361",
	},
	"libctemplate": {
		"eebf647b4f76f8601a4d65ee263b1a2f9b5136f098efefc1caf1493586e507cc",
		"27a7cd54a20c81bce9df13320dfc347f082e4107833046fce2e0a6d65741446b",
	},
	"ShowTraf": {
		"6ae5e6b3d590c4eddaa1d55269089798e5135625d7e1d6f6e9b3d9d10b7e2f49",
		"990ce5bff14d29e8353ccca97f35f8aa6afa5c8e2cc38e873c1b190c2f7364c0",
	},
	"Smoothing": {
		"39db6f7d95c2b531ee757aef9b9009a911209449030ccee199de3726ab800cb6",
		"1fa1e536b9b31498afee6f68c2de6e78a4dd21f92d1f9c813b50a6f34a4d2edc",
	},
	"td_unittest": {
		"6f72d8cdf01a258077a008419d2e11b5b70258eb865a902270c81af65027d281",
		"8de4e49b6832b3c128439e2b3d8f7bb876dfc32f4ff9e9334943bed42fe009e5",
	},
	"tinyserver": {
		"9a455abc6725d4ac5e6e922b877d00ceeedec35266ca46868f776d7db8c729a8",
		"cb2152d08f39a15a82170031830e6c564a0378fbad96c7f8d8cddf63a0aebf0c",
	},
}

var synthHashes = map[string][2]string{
	"random/opt": {
		"984f20ff8c032feb2d9c09405a8d26ee489e5867897b96be4b3bbb95480916bb",
		"d5b71914e96eb8c14afa59a00f582bc94b09960602b6731d1139ccf1c310d349",
	},
	"random/devirt": {
		"6611dd4ed53929ea6b604a5a54acb75cecb8ebb4911042f894c80e1f28377c65",
		"2fb35379f85e9199b7731103800482ffa4d4d7efd8a15d1924d85ec16166f850",
	},
	"random/comdat": {
		"9deb0b3d0554c469f2927a918f74fa3363c76ff6ddc94f69184a1ea18f74facc",
		"6333268668f47b9ca6f52dd648ce04fdf920cf302f865ee1f4610c135c6012f4",
	},
	"random/partial": {
		"6010913ae0721792b9465829f80d7499a784af7e2d6840d9deb3af776ea06842",
		"5bda8ae35a239165b9dfdeac966ec877e338bcbfdb80fb026beaa9f11441a59c",
	},
	"deep/opt": {
		"50eef7177172f3c7b36a8481ead92dc25539574ea430a7fb475525ec3d0917c9",
		"6089e07b95a27a5d39ad96714da70d2ff721be1fcd3f98b8efe9c544678f79d6",
	},
	"deep/devirt": {
		"dbb944d8603fb6851c8420ca3ef41a06d98511aa28355404a58d72ae18e5d925",
		"ca8bb2c3508e5a1963b3444c55183f167ba6a6c2e510bc898dc2d15f940d7bd0",
	},
	"deep/comdat": {
		"e451cdd9ac1193229aa9910ee84a0a114285c1b02e3285b1d40bd6f8f5f0dd36",
		"7fb59c75ca8f410376da09f94d36665ccce9c9f2d9a8ae0f4b4c16c7a5691093",
	},
	"deep/partial": {
		"2fc9e5cc24d7c98ae25a3be44699902b48e7f7a14b92842ed6dc1b0e21341e2c",
		"a418782effa9aeb523a7d232a6dc5ecc8cdaf39c77a774518999e48fd7ab1a96",
	},
	"wide/opt": {
		"94bc3f60110059c8f3587082749872caba3ecd6352f4c2cfcc6c60a475e31ad9",
		"b1955ca6fbec48c3b159958dd9f6dbee9b08898dc5dcc5028ad4746158e2d8e1",
	},
	"wide/devirt": {
		"87e7f473cf98764a2d793328f513f34597f6db8bd614cfb830e9b693c67ac0f2",
		"1aa360f33db0798e2c09bb05db379a54bde934a285d468330ba8ea2fdab701c7",
	},
	"wide/comdat": {
		"5919f705fe1780a0706e90cecbd93d11a57ab15e0db9d1bab4ad8bb82fe1929a",
		"0879ada2609138f02ebe22a6cd30f622e751f30a9757b0498e9229af0dbe31ef",
	},
	"wide/partial": {
		"3abe190367cd635f98d553174ed32a76824010f895280b24b7d806082f687dcb",
		"1fe330ec2c3420de0db03e3238039847287393435ac1a67c7a07026b184f54b2",
	},
	"diamond/opt": {
		"59d8f335f48204044b4a1f23f702928acdebd2c36b6c95da6abfca177530271c",
		"80ff735b3e9f9f0bbb01515eb5d7ccc71e02b1df3a46c522b14c1add444bcf97",
	},
	"diamond/devirt": {
		"81822fcd9520b025a41c6f90c9fa4b2b72bcb0a4873eba99f8411b8ee05da4d6",
		"704bcc30f54a59c94e290f839dcca9abe421ef3411f1943a153ef086b715c1f6",
	},
	"diamond/comdat": {
		"7fb7f1336df0244f748aa5f5977def596bcb1c90b3b415abc4c4babc7b8422b5",
		"d22de8e44912657b169c5329340cb26911d2e9c0dff97b39558cac60e620d0cc",
	},
	"diamond/partial": {
		"7c128d82f477186cec08c304f8ebc3ae0e390fa4335a9981904381650dcec840",
		"8ea95d124b1d243aa674cd3061147127e21c40310e818676f36d565a13145334",
	},
	"split/opt": {
		"a163e64cad4a4974e5aa68d8fff12831d12d17cc60a9824e1534e0895bb8d63b",
		"d4d44f4e564880b41ef73798523ae8d71364b6f5b07b2f043fd8ec6f322d762c",
	},
	"split/devirt": {
		"dd0b03bd1503c3b673ff1126051f6283d8cd801354d011a7efb7774809b95c14",
		"96e75748dcf528644bf9770f0978ab3d263f6bc6bb7e7fac9d13b9f26509f728",
	},
	"split/comdat": {
		"3ebb8c71cab60b73bb7a2562b905c5a14b2add1ad03de403e8a9cc1ef9b3f38e",
		"9842c7f196cd788addb4a0afa248bc6298d57d6d33d2341b9e116e6f389c7807",
	},
	"split/partial": {
		"14277066b5104da18382dfb7f9e80ca5f6cc9bc73833d0b4f1fb5dfb9e5ab4cd",
		"9dc03770bca1f4837226d22869d7fb61da7c95e68b3f3c42a2688180b5da498f",
	},
	"interleaved/opt": {
		"b9967a37570724fe60ba8938641ab108209e6dfc2113f6ae9fca21c11e072dab",
		"e21690ef07b9d987685e099b8782bf6c21feb883373e8dfe1bf9e5074318a15d",
	},
	"interleaved/devirt": {
		"8ee5ba805e96dc956a806ea5cb85130e36b55a946bdcd8b99f3191e7ea36eeae",
		"18c67b1b6b7d5eb86222b93d2c90af407c1ef4a587b5d684cfe4fc61c4ead465",
	},
	"interleaved/comdat": {
		"fb25e54600bdbeb873ffdf0ddeea3be9c9e5b8f1688883d52c25499cf8205809",
		"f729e2e01d8f6be89a9101eb110e42fb7062b756f238935aaec38ca10e1a59c3",
	},
	"interleaved/partial": {
		"afd08eab04cdcae6e985b4b777b9c155c57b330e46f9186b5b9f53537f744d91",
		"b833514efa2cf7fe80f12190b9930bc556465b87a16fc6bf74354729a2c53cd0",
	},
}
