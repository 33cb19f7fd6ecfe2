package mediumgrain_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/corpus"
)

// goldenRow pins one partitioning result: the volume and an FNV-64a
// hash of the parts vector (each part as a little-endian uint32).
type goldenRow struct {
	instance string
	method   string
	p        int
	variant  string
	volume   int64
	hash     uint64
}

// goldenTable is the pinned result of every request goldenRun makes.
// Any deliberate change to partitioning results — an algorithm change
// that moves per-seed parts in any mode — updates this table and bumps
// the version tag in cluster.CacheKey in the same commit, so results
// computed under the old semantics can never answer a current request.
// On a mismatch the test prints the new table ready to paste here.
var goldenTable = []goldenRow{
	{"lap2d-24", "MG", 2, "default", 48, 0x61d63857bcc2de84},
	{"lap2d-24", "MG", 16, "default", 267, 0x32f13ed392dcd496},
	{"lap2d-24", "FG", 2, "default", 48, 0x2b48656405b55775},
	{"lap2d-24", "FG", 16, "default", 282, 0x9a8ee8f6446cc286},
	{"lap2d-24", "LB", 2, "default", 48, 0xec752dc2730ddf65},
	{"lap2d-24", "LB", 16, "default", 264, 0x43d015c62a9714b9},
	{"lap2d-24", "MG", 2, "refine", 48, 0x61d63857bcc2de84},
	{"lap2d-24", "MG", 16, "refine", 270, 0x6944d14e052d1a14},
	{"lap2d-24", "MG", 2, "tries2", 48, 0x61d63857bcc2de84},
	{"lap2d-24", "MG", 16, "tries2", 267, 0x32f13ed392dcd496},
	{"lap2d-24", "MG", 2, "parallel-fm", 48, 0x61d63857bcc2de84},
	{"lap2d-24", "MG", 16, "parallel-fm", 260, 0xd0e1e56fb9abf357},
	{"lap2d-24", "FG", 2, "parallel-fm", 48, 0x2b48656405b55775},
	{"lap2d-24", "FG", 16, "parallel-fm", 277, 0x11598c74e5f41f77},
	{"powerlaw-3", "MG", 2, "default", 152, 0xfd81a4c5d60cce15},
	{"powerlaw-3", "MG", 16, "default", 791, 0x70d5bd2c4a501c38},
	{"powerlaw-3", "FG", 2, "default", 162, 0x2b5db9d17b8af604},
	{"powerlaw-3", "FG", 16, "default", 801, 0x6c74e0271ee125e9},
	{"powerlaw-3", "LB", 2, "default", 239, 0xebd42062c0d83084},
	{"powerlaw-3", "LB", 16, "default", 868, 0x90ce078573929cd1},
	{"powerlaw-3", "MG", 2, "refine", 151, 0x17e755a5729aa3a5},
	{"powerlaw-3", "MG", 16, "refine", 756, 0x2a56e2ebf09dd18c},
	{"powerlaw-3", "MG", 2, "tries2", 152, 0xfd81a4c5d60cce15},
	{"powerlaw-3", "MG", 16, "tries2", 791, 0x70d5bd2c4a501c38},
	{"powerlaw-3", "MG", 2, "parallel-fm", 145, 0x5334f8ecc4deab84},
	{"powerlaw-3", "MG", 16, "parallel-fm", 801, 0x47871b2be6df1e85},
	{"powerlaw-3", "FG", 2, "parallel-fm", 158, 0xbf202d0c4b3f9515},
	{"powerlaw-3", "FG", 16, "parallel-fm", 784, 0x3ba84c095e0f4991},
	{"asym-pl", "MG", 2, "default", 154, 0x70a6046fbbd48824},
	{"asym-pl", "MG", 16, "default", 754, 0x4b3321e08d71cfff},
	{"asym-pl", "FG", 2, "default", 160, 0xc4d6652d0999f025},
	{"asym-pl", "FG", 16, "default", 770, 0x32c03022d8159e52},
	{"asym-pl", "LB", 2, "default", 162, 0x8cbe106b806644a5},
	{"asym-pl", "LB", 16, "default", 766, 0x1f5992e0d724bc06},
	{"asym-pl", "MG", 2, "refine", 153, 0x51ea30e71898b705},
	{"asym-pl", "MG", 16, "refine", 747, 0x393bc66739fe1fcf},
	{"asym-pl", "MG", 2, "tries2", 154, 0x70a6046fbbd48824},
	{"asym-pl", "MG", 16, "tries2", 754, 0x4b3321e08d71cfff},
	{"asym-pl", "MG", 2, "parallel-fm", 151, 0xea4d919a55011fe4},
	{"asym-pl", "MG", 16, "parallel-fm", 731, 0xce3bda93d8b15f41},
	{"asym-pl", "FG", 2, "parallel-fm", 162, 0x752314a66615b695},
	{"asym-pl", "FG", 16, "parallel-fm", 748, 0x1a8e3937d23948ff},
	{"bip-tall", "MG", 2, "default", 86, 0x5a688ff22683a305},
	{"bip-tall", "MG", 16, "default", 460, 0x73fb3e7393fadb76},
	{"bip-tall", "FG", 2, "default", 104, 0x5926e316b03476a4},
	{"bip-tall", "FG", 16, "default", 482, 0xd37cb3ae38e00972},
	{"bip-tall", "LB", 2, "default", 90, 0x771ea0b9a0b8ba54},
	{"bip-tall", "LB", 16, "default", 469, 0xf61a59419bf2bdd8},
	{"bip-tall", "MG", 2, "refine", 86, 0x5a688ff22683a305},
	{"bip-tall", "MG", 16, "refine", 459, 0x50009df7ffbe7d66},
	{"bip-tall", "MG", 2, "tries2", 86, 0x5a688ff22683a305},
	{"bip-tall", "MG", 16, "tries2", 456, 0xe83eba44529283f5},
	{"bip-tall", "MG", 2, "parallel-fm", 85, 0xe45355bfe9854a35},
	{"bip-tall", "MG", 16, "parallel-fm", 449, 0x6ce531dbaa330e3f},
	{"bip-tall", "FG", 2, "parallel-fm", 96, 0xfaa3cf9841b393a4},
	{"bip-tall", "FG", 16, "parallel-fm", 468, 0xe23698721b2e6f3b},
}

// goldenVariants are the request shapes the table covers and the
// methods each runs. parallel-fm also runs FG: the fine-grain model
// gives the largest hypergraphs in the set.
var goldenVariants = []struct {
	name    string
	methods []mediumgrain.Method
}{
	{"default", []mediumgrain.Method{mediumgrain.MethodMediumGrain, mediumgrain.MethodFineGrain, mediumgrain.MethodLocalBest}},
	{"refine", []mediumgrain.Method{mediumgrain.MethodMediumGrain}},
	{"tries2", []mediumgrain.Method{mediumgrain.MethodMediumGrain}},
	{"parallel-fm", []mediumgrain.Method{mediumgrain.MethodMediumGrain, mediumgrain.MethodFineGrain}},
}

// goldenInstances are scale-1 corpus instances covering the three
// matrix classes of the paper's evaluation.
var goldenInstances = []string{"lap2d-24", "powerlaw-3", "asym-pl", "bip-tall"}

func partsHash(parts []int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range parts {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenRun computes the table's rows in a fixed order.
func goldenRun(t *testing.T) []goldenRow {
	t.Helper()
	all := corpus.Build(corpus.DefaultOptions())
	plain := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})
	pcfg := mediumgrain.MondriaanLikeConfig()
	pcfg.ParallelFM = true
	parallel := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2, Partitioner: pcfg})

	var rows []goldenRow
	for _, name := range goldenInstances {
		in, err := corpus.Find(all, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range goldenVariants {
			for _, method := range v.methods {
				for _, p := range []int{2, 16} {
					req := mediumgrain.Request{Matrix: in.A, P: p, Method: method, Seed: 1}
					eng := plain
					switch v.name {
					case "refine":
						req.Refine = true
					case "tries2":
						req.Search.Tries = 2
					case "parallel-fm":
						eng = parallel
					}
					res, err := eng.Partition(context.Background(), req)
					if err != nil {
						t.Fatalf("%s %v p=%d %s: %v", name, method, p, v.name, err)
					}
					rows = append(rows, goldenRow{name, method.String(), p, v.name, res.Volume, partsHash(res.Parts)})
				}
			}
		}
	}
	return rows
}

// TestGoldenParts pins the parts and volume of a small fixed request
// set, so a change that moves any partitioning result shows up here as
// the exact rows that moved.
func TestGoldenParts(t *testing.T) {
	got := goldenRun(t)
	same := len(got) == len(goldenTable)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == goldenTable[i]
	}
	if same {
		return
	}
	var b strings.Builder
	b.WriteString("var goldenTable = []goldenRow{\n")
	for i, r := range got {
		mark := ""
		if i >= len(goldenTable) || goldenTable[i] != r {
			mark = " // changed"
		}
		fmt.Fprintf(&b, "\t{%q, %q, %d, %q, %d, %#016x},%s\n", r.instance, r.method, r.p, r.variant, r.volume, r.hash, mark)
	}
	b.WriteString("}\n")
	t.Fatalf("partitioning results differ from the golden table; new table:\n%s", b.String())
}
