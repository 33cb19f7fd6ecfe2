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
	{"lap2d-24", "MG", 2, "default", 48, 0xddb9a31c8bbfd804},
	{"lap2d-24", "MG", 16, "default", 274, 0x1192109464859fbc},
	{"lap2d-24", "FG", 2, "default", 48, 0x4657ec186eef26b4},
	{"lap2d-24", "FG", 16, "default", 275, 0x0bf8442461cbf827},
	{"lap2d-24", "LB", 2, "default", 48, 0x060d1a16b4cbe145},
	{"lap2d-24", "LB", 16, "default", 267, 0x26c69a138f048218},
	{"lap2d-24", "MG", 2, "refine", 48, 0xddb9a31c8bbfd804},
	{"lap2d-24", "MG", 16, "refine", 266, 0xcfe01dd1e0ce9078},
	{"lap2d-24", "MG", 2, "tries2", 48, 0xddb9a31c8bbfd804},
	{"lap2d-24", "MG", 16, "tries2", 270, 0x43a9b9079bca98bf},
	{"lap2d-24", "MG", 2, "parallel-fm", 48, 0xddb9a31c8bbfd804},
	{"lap2d-24", "MG", 16, "parallel-fm", 267, 0xf29ef901bf5c23c9},
	{"lap2d-24", "FG", 2, "parallel-fm", 48, 0xe9f4b807ea48bca5},
	{"lap2d-24", "FG", 16, "parallel-fm", 273, 0x798b2aa24bf5c795},
	{"powerlaw-3", "MG", 2, "default", 151, 0xb8cba50d4df07294},
	{"powerlaw-3", "MG", 16, "default", 789, 0xfae8ed22f0474f62},
	{"powerlaw-3", "FG", 2, "default", 161, 0x992850e6390193d5},
	{"powerlaw-3", "FG", 16, "default", 806, 0x672fdc389732424e},
	{"powerlaw-3", "LB", 2, "default", 231, 0xd6ca3c969c70cf15},
	{"powerlaw-3", "LB", 16, "default", 859, 0xd497bb6c2e1e9554},
	{"powerlaw-3", "MG", 2, "refine", 150, 0xe35ac753fca074b5},
	{"powerlaw-3", "MG", 16, "refine", 772, 0xd0407e3268dc39c6},
	{"powerlaw-3", "MG", 2, "tries2", 151, 0xb8cba50d4df07294},
	{"powerlaw-3", "MG", 16, "tries2", 789, 0xfae8ed22f0474f62},
	{"powerlaw-3", "MG", 2, "parallel-fm", 153, 0x44f0bd2013c4ab35},
	{"powerlaw-3", "MG", 16, "parallel-fm", 781, 0x496493fa0ecbf070},
	{"powerlaw-3", "FG", 2, "parallel-fm", 166, 0x98158cb5591913f4},
	{"powerlaw-3", "FG", 16, "parallel-fm", 767, 0x0eba739ebe7ab7d9},
	{"asym-pl", "MG", 2, "default", 152, 0xc5ca80b716464055},
	{"asym-pl", "MG", 16, "default", 755, 0xdbbc8ebcb5175101},
	{"asym-pl", "FG", 2, "default", 156, 0xc171ac7a0cf00184},
	{"asym-pl", "FG", 16, "default", 776, 0x7e8d21308ecaf271},
	{"asym-pl", "LB", 2, "default", 164, 0x99a4dd90adc8ba54},
	{"asym-pl", "LB", 16, "default", 758, 0xbaec81e6dc243020},
	{"asym-pl", "MG", 2, "refine", 148, 0xab024a7d82288885},
	{"asym-pl", "MG", 16, "refine", 751, 0xb59d073043061237},
	{"asym-pl", "MG", 2, "tries2", 152, 0xc5ca80b716464055},
	{"asym-pl", "MG", 16, "tries2", 755, 0xdbbc8ebcb5175101},
	{"asym-pl", "MG", 2, "parallel-fm", 159, 0x0db940eb5fcf0445},
	{"asym-pl", "MG", 16, "parallel-fm", 736, 0xc2d17f6234fcb2fe},
	{"asym-pl", "FG", 2, "parallel-fm", 163, 0xd58e7ceb09a7d055},
	{"asym-pl", "FG", 16, "parallel-fm", 751, 0x11997aaf42d401c7},
	{"bip-tall", "MG", 2, "default", 89, 0x56ffc7fc009000c5},
	{"bip-tall", "MG", 16, "default", 463, 0x80569518c669f1e3},
	{"bip-tall", "FG", 2, "default", 97, 0xddecec276af8b235},
	{"bip-tall", "FG", 16, "default", 471, 0x409ee276ef22266c},
	{"bip-tall", "LB", 2, "default", 91, 0x720aa8267bff23a5},
	{"bip-tall", "LB", 16, "default", 461, 0xe266614275ab891b},
	{"bip-tall", "MG", 2, "refine", 89, 0x56ffc7fc009000c5},
	{"bip-tall", "MG", 16, "refine", 454, 0xdc82160ced8f37e1},
	{"bip-tall", "MG", 2, "tries2", 89, 0x56ffc7fc009000c5},
	{"bip-tall", "MG", 16, "tries2", 463, 0x80569518c669f1e3},
	{"bip-tall", "MG", 2, "parallel-fm", 86, 0x471243bfc061fe65},
	{"bip-tall", "MG", 16, "parallel-fm", 458, 0xf6b417fb8e35d0ec},
	{"bip-tall", "FG", 2, "parallel-fm", 95, 0xe929141c73b6f914},
	{"bip-tall", "FG", 16, "parallel-fm", 475, 0xe0f4d5474078f8e0},
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
