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
	{"lap2d-24", "MG", 2, "default", 48, 0x5d806454065a1af4},
	{"lap2d-24", "MG", 16, "default", 268, 0xee97f600739863f7},
	{"lap2d-24", "FG", 2, "default", 48, 0x243443ab8e08f155},
	{"lap2d-24", "FG", 16, "default", 286, 0x2de6db51c1f1e11a},
	{"lap2d-24", "LB", 2, "default", 48, 0x0cc7554c24c9fdc4},
	{"lap2d-24", "LB", 16, "default", 270, 0x54d9ec1bc08f53e5},
	{"lap2d-24", "MG", 2, "refine", 48, 0x5d806454065a1af4},
	{"lap2d-24", "MG", 16, "refine", 255, 0x07f25383d1014dd7},
	{"lap2d-24", "MG", 2, "tries2", 48, 0x5d806454065a1af4},
	{"lap2d-24", "MG", 16, "tries2", 268, 0xee97f600739863f7},
	{"lap2d-24", "MG", 2, "parallel-fm", 48, 0x5d806454065a1af4},
	{"lap2d-24", "MG", 16, "parallel-fm", 255, 0xf72fa5ef0a20e803},
	{"lap2d-24", "FG", 2, "parallel-fm", 48, 0x243443ab8e08f155},
	{"lap2d-24", "FG", 16, "parallel-fm", 282, 0x3886de5516e5eb9e},
	{"lap2d-24", "MG", 2, "alt", 48, 0xfb9da74adae2b625},
	{"lap2d-24", "MG", 16, "alt", 276, 0x86da80f53d4f1fb3},
	{"lap2d-24", "FG", 2, "alt", 48, 0x61cf22bf55aeb115},
	{"lap2d-24", "FG", 16, "alt", 277, 0xe12ed56b830595b8},
	{"powerlaw-3", "MG", 2, "default", 152, 0xb423c6fa095703a5},
	{"powerlaw-3", "MG", 16, "default", 791, 0x5346bbe5dc7cd568},
	{"powerlaw-3", "FG", 2, "default", 160, 0x95692a16c8b28624},
	{"powerlaw-3", "FG", 16, "default", 790, 0xc361f0cb9d038956},
	{"powerlaw-3", "LB", 2, "default", 228, 0xa0c0e71597228ba4},
	{"powerlaw-3", "LB", 16, "default", 847, 0xc814aa28e408ee4c},
	{"powerlaw-3", "MG", 2, "refine", 152, 0xb423c6fa095703a5},
	{"powerlaw-3", "MG", 16, "refine", 770, 0x5102f059281de583},
	{"powerlaw-3", "MG", 2, "tries2", 152, 0xb423c6fa095703a5},
	{"powerlaw-3", "MG", 16, "tries2", 791, 0x5346bbe5dc7cd568},
	{"powerlaw-3", "MG", 2, "parallel-fm", 155, 0xe72a56a4cedb1485},
	{"powerlaw-3", "MG", 16, "parallel-fm", 778, 0xb95cf1649d48176f},
	{"powerlaw-3", "FG", 2, "parallel-fm", 159, 0x11d5492535dd3a25},
	{"powerlaw-3", "FG", 16, "parallel-fm", 779, 0x1f2d1bb5ad91719d},
	{"powerlaw-3", "MG", 2, "alt", 152, 0xa9b55d24663a2584},
	{"powerlaw-3", "MG", 16, "alt", 796, 0x83802e2c7be5c106},
	{"powerlaw-3", "FG", 2, "alt", 160, 0x8410c98f0d411164},
	{"powerlaw-3", "FG", 16, "alt", 786, 0x673885b30ab498ec},
	{"asym-pl", "MG", 2, "default", 154, 0x664070653e246f94},
	{"asym-pl", "MG", 16, "default", 753, 0x3ae2ae1855e0b657},
	{"asym-pl", "FG", 2, "default", 180, 0x49304911477b9f15},
	{"asym-pl", "FG", 16, "default", 769, 0x2ea50d3522b995dc},
	{"asym-pl", "LB", 2, "default", 161, 0x78287715b01d6815},
	{"asym-pl", "LB", 16, "default", 757, 0x654623ec9e214d1c},
	{"asym-pl", "MG", 2, "refine", 150, 0xd72e83de5d8d6e75},
	{"asym-pl", "MG", 16, "refine", 746, 0xf82755bc2531ab29},
	{"asym-pl", "MG", 2, "tries2", 154, 0x664070653e246f94},
	{"asym-pl", "MG", 16, "tries2", 753, 0x3ae2ae1855e0b657},
	{"asym-pl", "MG", 2, "parallel-fm", 153, 0x615f72f27700f224},
	{"asym-pl", "MG", 16, "parallel-fm", 746, 0xfa1f9bfb2c6cfb55},
	{"asym-pl", "FG", 2, "parallel-fm", 155, 0xb964c44278d304b4},
	{"asym-pl", "FG", 16, "parallel-fm", 748, 0xebc8fcf7a4d121a5},
	{"asym-pl", "MG", 2, "alt", 164, 0x0858fa034c721214},
	{"asym-pl", "MG", 16, "alt", 776, 0x83e05d952e822eee},
	{"asym-pl", "FG", 2, "alt", 163, 0x00c53d92313cced4},
	{"asym-pl", "FG", 16, "alt", 789, 0xa1574b66ec7c63d8},
	{"bip-tall", "MG", 2, "default", 90, 0x6c5de36272e6f354},
	{"bip-tall", "MG", 16, "default", 471, 0x15e1162eb6510e4a},
	{"bip-tall", "FG", 2, "default", 100, 0x2a5b9b98d12efa94},
	{"bip-tall", "FG", 16, "default", 490, 0x60374026bbdf3e5a},
	{"bip-tall", "LB", 2, "default", 91, 0x25d612eb25bdd745},
	{"bip-tall", "LB", 16, "default", 464, 0xd64abf1dd71edeaf},
	{"bip-tall", "MG", 2, "refine", 90, 0x6c5de36272e6f354},
	{"bip-tall", "MG", 16, "refine", 461, 0x58b2655107dc0f8a},
	{"bip-tall", "MG", 2, "tries2", 88, 0x453d6296c81b8ae4},
	{"bip-tall", "MG", 16, "tries2", 467, 0x878459655bafaebf},
	{"bip-tall", "MG", 2, "parallel-fm", 87, 0x6d3efc0f6ef671e4},
	{"bip-tall", "MG", 16, "parallel-fm", 460, 0xed71c9d9486b1afa},
	{"bip-tall", "FG", 2, "parallel-fm", 98, 0x25b1d5ec742af304},
	{"bip-tall", "FG", 16, "parallel-fm", 481, 0x65def5ad8bbeff48},
	{"bip-tall", "MG", 2, "alt", 89, 0xc332dc368f6bfb14},
	{"bip-tall", "MG", 16, "alt", 464, 0x741d7a4f0e8c631c},
	{"bip-tall", "FG", 2, "alt", 96, 0x4116a148e11554c5},
	{"bip-tall", "FG", 16, "alt", 486, 0xf7629601fd6dad95},
}

// goldenVariants are the request shapes the table covers and the
// methods each runs. parallel-fm also runs FG: the fine-grain model
// gives the largest hypergraphs in the set. alt runs the ConfigAlt
// engine (random matching), so its rows show whether a change to the
// Mondriaan-like preset's coarsening left the other preset alone.
var goldenVariants = []struct {
	name    string
	methods []mediumgrain.Method
}{
	{"default", []mediumgrain.Method{mediumgrain.MethodMediumGrain, mediumgrain.MethodFineGrain, mediumgrain.MethodLocalBest}},
	{"refine", []mediumgrain.Method{mediumgrain.MethodMediumGrain}},
	{"tries2", []mediumgrain.Method{mediumgrain.MethodMediumGrain}},
	{"parallel-fm", []mediumgrain.Method{mediumgrain.MethodMediumGrain, mediumgrain.MethodFineGrain}},
	{"alt", []mediumgrain.Method{mediumgrain.MethodMediumGrain, mediumgrain.MethodFineGrain}},
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
	alt := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2, Partitioner: mediumgrain.AltConfig()})

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
					case "alt":
						eng = alt
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
