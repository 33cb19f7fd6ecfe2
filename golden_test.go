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
	{"lap2d-24", "MG", 16, "default", 259, 0x05a8494fdaef6bf5},
	{"lap2d-24", "FG", 2, "default", 48, 0x5293c3fc6bcc6784},
	{"lap2d-24", "FG", 16, "default", 273, 0xa5181db785fb5cab},
	{"lap2d-24", "LB", 2, "default", 48, 0x5102ac1e57290515},
	{"lap2d-24", "LB", 16, "default", 256, 0xc9067152a59800ca},
	{"lap2d-24", "MG", 2, "refine", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "refine", 276, 0x87d5a9e028f9e3d5},
	{"lap2d-24", "MG", 2, "tries2", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "tries2", 259, 0x05a8494fdaef6bf5},
	{"lap2d-24", "MG", 2, "parallel-fm", 48, 0xf177dd2bd7c5b6e5},
	{"lap2d-24", "MG", 16, "parallel-fm", 258, 0x955c096711aa6b27},
	{"lap2d-24", "FG", 2, "parallel-fm", 48, 0x5293c3fc6bcc6784},
	{"lap2d-24", "FG", 16, "parallel-fm", 277, 0x02d90aa50831b12d},
	{"lap2d-24", "MG", 2, "alt", 48, 0xedf5cb45c9f579a5},
	{"lap2d-24", "MG", 16, "alt", 285, 0xf984075244d34a66},
	{"lap2d-24", "FG", 2, "alt", 48, 0xd87368fc9b0c41a4},
	{"lap2d-24", "FG", 16, "alt", 280, 0x8cdafdde4b168a4b},
	{"powerlaw-3", "MG", 2, "default", 156, 0xfe11e6b5542db2b5},
	{"powerlaw-3", "MG", 16, "default", 774, 0x9caf16ed93dd912a},
	{"powerlaw-3", "FG", 2, "default", 149, 0x6756f7208cdff425},
	{"powerlaw-3", "FG", 16, "default", 805, 0x051f4901df6d826a},
	{"powerlaw-3", "LB", 2, "default", 233, 0xcda4a69aec0339c4},
	{"powerlaw-3", "LB", 16, "default", 867, 0xf10708f2ecc74a8f},
	{"powerlaw-3", "MG", 2, "refine", 154, 0xbe9cf8757794b205},
	{"powerlaw-3", "MG", 16, "refine", 743, 0x75c84c0521bde55d},
	{"powerlaw-3", "MG", 2, "tries2", 154, 0xe2d13552cf520625},
	{"powerlaw-3", "MG", 16, "tries2", 774, 0x9caf16ed93dd912a},
	{"powerlaw-3", "MG", 2, "parallel-fm", 154, 0xba50f21d23f94b74},
	{"powerlaw-3", "MG", 16, "parallel-fm", 766, 0x46e5179fcfae7603},
	{"powerlaw-3", "FG", 2, "parallel-fm", 149, 0x7aa04835a93f1fd4},
	{"powerlaw-3", "FG", 16, "parallel-fm", 787, 0x1dbb37d7b5640895},
	{"powerlaw-3", "MG", 2, "alt", 152, 0x8c8b46f3ac5d6885},
	{"powerlaw-3", "MG", 16, "alt", 799, 0x6b41989789ff5017},
	{"powerlaw-3", "FG", 2, "alt", 151, 0xafce1ba64e591e74},
	{"powerlaw-3", "FG", 16, "alt", 797, 0x806aca1352a0ae25},
	{"asym-pl", "MG", 2, "default", 153, 0x39bb5164fe5b4754},
	{"asym-pl", "MG", 16, "default", 747, 0x5de7ff001055a1ac},
	{"asym-pl", "FG", 2, "default", 157, 0x7593474f9e16fa24},
	{"asym-pl", "FG", 16, "default", 773, 0x0cb2d965d631168a},
	{"asym-pl", "LB", 2, "default", 165, 0x6e41a16832618884},
	{"asym-pl", "LB", 16, "default", 754, 0xfff4f7c32efd2546},
	{"asym-pl", "MG", 2, "refine", 146, 0xb30abea54e34f154},
	{"asym-pl", "MG", 16, "refine", 748, 0x3e2dcf3bea83d848},
	{"asym-pl", "MG", 2, "tries2", 152, 0xc4c58ff297c43075},
	{"asym-pl", "MG", 16, "tries2", 747, 0x5de7ff001055a1ac},
	{"asym-pl", "MG", 2, "parallel-fm", 150, 0x1825ff5f6cb214a5},
	{"asym-pl", "MG", 16, "parallel-fm", 758, 0xc6440b50cdd1f8ff},
	{"asym-pl", "FG", 2, "parallel-fm", 162, 0xb31f23b9a9c510e4},
	{"asym-pl", "FG", 16, "parallel-fm", 745, 0x51f5620ab0cbdcad},
	{"asym-pl", "MG", 2, "alt", 151, 0x809c651a3eda08f5},
	{"asym-pl", "MG", 16, "alt", 768, 0x01a317564992c7ef},
	{"asym-pl", "FG", 2, "alt", 162, 0x3b9b08912416f1b4},
	{"asym-pl", "FG", 16, "alt", 768, 0x9c75638653330afc},
	{"bip-tall", "MG", 2, "default", 92, 0x7f6d055c1ac621c5},
	{"bip-tall", "MG", 16, "default", 466, 0xa74ca58976bb0938},
	{"bip-tall", "FG", 2, "default", 100, 0xa59bead5c0dbbe94},
	{"bip-tall", "FG", 16, "default", 485, 0x23e00a663a08a6c3},
	{"bip-tall", "LB", 2, "default", 92, 0xcf5420d302b45055},
	{"bip-tall", "LB", 16, "default", 461, 0xe92e32b92d7f4ab0},
	{"bip-tall", "MG", 2, "refine", 92, 0x7f6d055c1ac621c5},
	{"bip-tall", "MG", 16, "refine", 468, 0x2ae42911f790e77c},
	{"bip-tall", "MG", 2, "tries2", 90, 0xc1203896b93f4bb5},
	{"bip-tall", "MG", 16, "tries2", 456, 0x774c7e8e6c4ac9c3},
	{"bip-tall", "MG", 2, "parallel-fm", 91, 0x7572b760eaa65ea5},
	{"bip-tall", "MG", 16, "parallel-fm", 460, 0x7e3ee36b909ddc2c},
	{"bip-tall", "FG", 2, "parallel-fm", 93, 0x0df3074d0607b795},
	{"bip-tall", "FG", 16, "parallel-fm", 469, 0x29688fb45f10f0d4},
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
