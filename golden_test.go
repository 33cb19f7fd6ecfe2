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
	{"lap2d-24", "MG", 2, "default", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "default", 257, 0xa9f565280e1966b6},
	{"lap2d-24", "FG", 2, "default", 48, 0x5293c3fc6bcc6784},
	{"lap2d-24", "FG", 16, "default", 276, 0x0748944f84d36b38},
	{"lap2d-24", "LB", 2, "default", 48, 0x5102ac1e57290515},
	{"lap2d-24", "LB", 16, "default", 264, 0x6d709af15aff1876},
	{"lap2d-24", "MG", 2, "refine", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "refine", 276, 0x888574f707e0ddd4},
	{"lap2d-24", "MG", 2, "tries2", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "tries2", 257, 0xa9f565280e1966b6},
	{"lap2d-24", "MG", 2, "parallel-fm", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "parallel-fm", 256, 0x1fd071fa0868a2e4},
	{"lap2d-24", "FG", 2, "parallel-fm", 48, 0x5293c3fc6bcc6784},
	{"lap2d-24", "FG", 16, "parallel-fm", 281, 0xb5b2d3a82f9bd75f},
	{"lap2d-24", "MG", 2, "alt", 48, 0xedf5cb45c9f579a5},
	{"lap2d-24", "MG", 16, "alt", 285, 0xf984075244d34a66},
	{"lap2d-24", "FG", 2, "alt", 48, 0xd87368fc9b0c41a4},
	{"lap2d-24", "FG", 16, "alt", 280, 0x8cdafdde4b168a4b},
	{"powerlaw-3", "MG", 2, "default", 156, 0xfe11e6b5542db2b5},
	{"powerlaw-3", "MG", 16, "default", 790, 0xafe74a162f45615f},
	{"powerlaw-3", "FG", 2, "default", 149, 0x6756f7208cdff425},
	{"powerlaw-3", "FG", 16, "default", 803, 0x5b319a17e431b0ce},
	{"powerlaw-3", "LB", 2, "default", 229, 0xbe8ab1261df09844},
	{"powerlaw-3", "LB", 16, "default", 862, 0x8ff90af050378c7e},
	{"powerlaw-3", "MG", 2, "refine", 154, 0xbe9cf8757794b205},
	{"powerlaw-3", "MG", 16, "refine", 751, 0xb7679f5d44eaa3bd},
	{"powerlaw-3", "MG", 2, "tries2", 154, 0xe2d13552cf520625},
	{"powerlaw-3", "MG", 16, "tries2", 790, 0xafe74a162f45615f},
	{"powerlaw-3", "MG", 2, "parallel-fm", 154, 0xba50f21d23f94b74},
	{"powerlaw-3", "MG", 16, "parallel-fm", 771, 0x14ba550b02fe2e03},
	{"powerlaw-3", "FG", 2, "parallel-fm", 149, 0x7aa04835a93f1fd4},
	{"powerlaw-3", "FG", 16, "parallel-fm", 787, 0x1dbb37d7b5640895},
	{"powerlaw-3", "MG", 2, "alt", 152, 0x8c8b46f3ac5d6885},
	{"powerlaw-3", "MG", 16, "alt", 799, 0x6b41989789ff5017},
	{"powerlaw-3", "FG", 2, "alt", 151, 0xafce1ba64e591e74},
	{"powerlaw-3", "FG", 16, "alt", 797, 0x806aca1352a0ae25},
	{"asym-pl", "MG", 2, "default", 153, 0x39bb5164fe5b4754},
	{"asym-pl", "MG", 16, "default", 746, 0x41ce13d233f75d0e},
	{"asym-pl", "FG", 2, "default", 157, 0x7593474f9e16fa24},
	{"asym-pl", "FG", 16, "default", 771, 0xac9a4d0f77828c3a},
	{"asym-pl", "LB", 2, "default", 165, 0x6e41a16832618884},
	{"asym-pl", "LB", 16, "default", 753, 0x3b36e1addc8434c2},
	{"asym-pl", "MG", 2, "refine", 146, 0xb30abea54e34f154},
	{"asym-pl", "MG", 16, "refine", 747, 0x09d8d3127ce2e529},
	{"asym-pl", "MG", 2, "tries2", 152, 0xc4c58ff297c43075},
	{"asym-pl", "MG", 16, "tries2", 746, 0x41ce13d233f75d0e},
	{"asym-pl", "MG", 2, "parallel-fm", 150, 0x1825ff5f6cb214a5},
	{"asym-pl", "MG", 16, "parallel-fm", 755, 0xa9af122bc500255f},
	{"asym-pl", "FG", 2, "parallel-fm", 162, 0xb31f23b9a9c510e4},
	{"asym-pl", "FG", 16, "parallel-fm", 742, 0x2cddfc501607ea4f},
	{"asym-pl", "MG", 2, "alt", 151, 0x809c651a3eda08f5},
	{"asym-pl", "MG", 16, "alt", 768, 0x01a317564992c7ef},
	{"asym-pl", "FG", 2, "alt", 162, 0x3b9b08912416f1b4},
	{"asym-pl", "FG", 16, "alt", 768, 0x9c75638653330afc},
	{"bip-tall", "MG", 2, "default", 92, 0x7f6d055c1ac621c5},
	{"bip-tall", "MG", 16, "default", 469, 0xdd3783b1d859a8d9},
	{"bip-tall", "FG", 2, "default", 100, 0xa59bead5c0dbbe94},
	{"bip-tall", "FG", 16, "default", 485, 0x48cea930c8359901},
	{"bip-tall", "LB", 2, "default", 93, 0xfde346db58ac5ad5},
	{"bip-tall", "LB", 16, "default", 458, 0x2b33d0827a323ed4},
	{"bip-tall", "MG", 2, "refine", 92, 0x7f6d055c1ac621c5},
	{"bip-tall", "MG", 16, "refine", 464, 0x4df1a609c7cd9119},
	{"bip-tall", "MG", 2, "tries2", 87, 0x5a03b7d3d764f144},
	{"bip-tall", "MG", 16, "tries2", 458, 0xaf61a419b3894202},
	{"bip-tall", "MG", 2, "parallel-fm", 91, 0x7572b760eaa65ea5},
	{"bip-tall", "MG", 16, "parallel-fm", 463, 0x2690231a291010ad},
	{"bip-tall", "FG", 2, "parallel-fm", 93, 0x0df3074d0607b795},
	{"bip-tall", "FG", 16, "parallel-fm", 469, 0x6e2816f3fb6e4c13},
	{"bip-tall", "MG", 2, "alt", 88, 0xa2d45e8afcaa9c14},
	{"bip-tall", "MG", 16, "alt", 467, 0x7956e1c29ce024f4},
	{"bip-tall", "FG", 2, "alt", 97, 0xe4a4833f3fc7c675},
	{"bip-tall", "FG", 16, "alt", 483, 0x943ce8182a93a642},
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
