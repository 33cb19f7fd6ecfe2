package sparse

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
3 4 -1
2 2 7
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 4 || a.NNZ() != 3 {
		t.Fatalf("got %v", a)
	}
	if !a.HasValues() {
		t.Fatal("real matrix lost values")
	}
	a.Canonicalize()
	if a.RowIdx[0] != 0 || a.ColIdx[0] != 0 || a.Val[0] != 2.5 {
		t.Fatalf("first entry = (%d,%d,%g)", a.RowIdx[0], a.ColIdx[0], a.Val[0])
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.HasValues() {
		t.Fatal("pattern matrix has values")
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
}

func TestReadMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 5.0
3 2 2.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// diagonal stays single; off-diagonals mirror
	if a.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5 after expansion", a.NNZ())
	}
	if s := a.PatternSymmetry(); s != 1 {
		t.Fatalf("expanded symmetry = %g, want 1", s)
	}
}

func TestReadMatrixMarketSkewSymmetric(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n"
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	a.Canonicalize()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	// Mirror of a(1,0)=3 is a(0,1)=-3.
	if a.Val[0] != -3 {
		t.Fatalf("mirror value = %g, want -3", a.Val[0])
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"not a header\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\nbogus size line\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 y 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 z\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n",                 // missing size
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, strings.SplitN(in, "\n", 2)[0])
		}
	}
}

func TestMatrixMarketRoundTripPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 7, 9, 25)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("pattern round trip changed the matrix")
	}
}

func TestMatrixMarketRoundTripValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 6, 6, 20)
	a.Val = make([]float64, a.NNZ())
	for k := range a.Val {
		a.Val[k] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b.Canonicalize()
	if !Equal(a, b) {
		t.Fatal("value round trip changed the pattern")
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] {
			t.Fatalf("value %d: %g != %g", k, a.Val[k], b.Val[k])
		}
	}
}

func TestWriteMatrixMarketHeader(t *testing.T) {
	a := New(1, 1)
	a.AppendPattern(0, 0)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "%%MatrixMarket matrix coordinate pattern general") {
		t.Fatalf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}
