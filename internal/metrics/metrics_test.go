package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/sparse"
)

func randomPattern(rng *rand.Rand, rows, cols, maxNNZ int) *sparse.Matrix {
	a := sparse.New(rows, cols)
	n := rng.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

func randomParts(rng *rand.Rand, n, p int) []int {
	parts := make([]int, n)
	for k := range parts {
		parts[k] = rng.Intn(p)
	}
	return parts
}

// bruteVolume recomputes eqns (2),(3) with maps, independent of the
// stamped implementation.
func bruteVolume(a *sparse.Matrix, parts []int) int64 {
	rowParts := make([]map[int]bool, a.Rows)
	colParts := make([]map[int]bool, a.Cols)
	for i := range rowParts {
		rowParts[i] = map[int]bool{}
	}
	for j := range colParts {
		colParts[j] = map[int]bool{}
	}
	for k := range a.RowIdx {
		rowParts[a.RowIdx[k]][parts[k]] = true
		colParts[a.ColIdx[k]][parts[k]] = true
	}
	var v int64
	for _, s := range rowParts {
		if len(s) > 1 {
			v += int64(len(s) - 1)
		}
	}
	for _, s := range colParts {
		if len(s) > 1 {
			v += int64(len(s) - 1)
		}
	}
	return v
}

func TestVolumeSmallKnown(t *testing.T) {
	// 2x2 full matrix, diagonal split: every row and column is cut.
	a := sparse.New(2, 2)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(1, 0)
	a.AppendPattern(1, 1)
	a.Canonicalize()
	parts := []int{0, 1, 1, 0}
	if v := Volume(a, parts, 2); v != 4 {
		t.Fatalf("volume = %d, want 4", v)
	}
	// all nonzeros on one part: zero volume
	if v := Volume(a, []int{0, 0, 0, 0}, 2); v != 0 {
		t.Fatalf("volume = %d, want 0", v)
	}
	// row split: only columns cut
	if v := Volume(a, []int{0, 0, 1, 1}, 2); v != 2 {
		t.Fatalf("volume = %d, want 2", v)
	}
}

func TestVolumeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(15), 1+rng.Intn(15), 80)
		p := 2 + rng.Intn(4)
		parts := randomParts(rng, a.NNZ(), p)
		return Volume(a, parts, p) == bruteVolume(a, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(12), 1+rng.Intn(12), 50)
		p := 2 + rng.Intn(3)
		parts := randomParts(rng, a.NNZ(), p)
		// Transpose preserves COO order, so the same parts apply.
		return Volume(a, parts, p) == Volume(a.Transpose(), parts, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLambdas(t *testing.T) {
	a := sparse.New(2, 3)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(1, 1)
	a.Canonicalize()
	lr, lc := Lambdas(a, []int{0, 1, 1}, 2)
	if lr[0] != 2 || lr[1] != 1 {
		t.Fatalf("row lambdas = %v", lr)
	}
	if lc[0] != 1 || lc[1] != 1 || lc[2] != 0 {
		t.Fatalf("col lambdas = %v", lc)
	}
}

func TestPartSizesAndImbalance(t *testing.T) {
	parts := []int{0, 0, 0, 1}
	s := PartSizes(parts, 2)
	if s[0] != 3 || s[1] != 1 {
		t.Fatalf("sizes = %v", s)
	}
	// max = 3, N/p = 2 -> eps' = 0.5
	if imb := Imbalance(parts, 2); math.Abs(imb-0.5) > 1e-12 {
		t.Fatalf("imbalance = %g, want 0.5", imb)
	}
	if imb := Imbalance([]int{0, 1}, 2); imb != 0 {
		t.Fatalf("perfect split imbalance = %g", imb)
	}
	if imb := Imbalance(nil, 2); imb != 0 {
		t.Fatalf("empty imbalance = %g", imb)
	}
}

func TestCheckBalance(t *testing.T) {
	// 4 nonzeros, p=2, eps=0: limit is ceil(4/2)=2
	if err := CheckBalance([]int{0, 0, 1, 1}, 2, 0); err != nil {
		t.Fatalf("even split rejected: %v", err)
	}
	if err := CheckBalance([]int{0, 0, 0, 1}, 2, 0); err == nil {
		t.Fatal("3-1 split accepted at eps=0")
	}
	if err := CheckBalance([]int{0, 0, 0, 1}, 2, 0.5); err != nil {
		t.Fatalf("3-1 split rejected at eps=0.5: %v", err)
	}
	// odd N: ceil average keeps the perfect split feasible
	if err := CheckBalance([]int{0, 0, 1}, 2, 0); err != nil {
		t.Fatalf("2-1 split of N=3 rejected: %v", err)
	}
	if err := CheckBalance(nil, 2, 0); err != nil {
		t.Fatal("empty parts rejected")
	}
}

func TestValidateParts(t *testing.T) {
	a := randomPattern(rand.New(rand.NewSource(1)), 5, 5, 20)
	parts := randomParts(rand.New(rand.NewSource(2)), a.NNZ(), 2)
	if err := ValidateParts(a, parts, 2); err != nil {
		t.Fatal(err)
	}
	if err := ValidateParts(a, parts[:len(parts)/2], 2); err == nil && a.NNZ() > 1 {
		t.Fatal("short parts accepted")
	}
	if a.NNZ() > 0 {
		bad := append([]int(nil), parts...)
		bad[0] = 7
		if err := ValidateParts(a, bad, 2); err == nil {
			t.Fatal("out-of-range part accepted")
		}
	}
}

func TestEmptyMatrixVolume(t *testing.T) {
	a := sparse.New(4, 4)
	if v := Volume(a, nil, 2); v != 0 {
		t.Fatalf("empty volume = %d", v)
	}
}
