package distio

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mediumgrain/internal/core"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

func partitionedBundle(t *testing.T) *Bundle {
	t.Helper()
	a := gen.Laplacian2D(8, 8)
	res, err := core.NewEngine(0).Partition(context.Background(), a, 4, core.MethodMediumGrain, core.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBundle(a, res.Parts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBundleRoundTrip(t *testing.T) {
	b := partitionedBundle(t)
	dir := t.TempDir()
	if err := Write(dir, "mesh", b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(dir, "mesh")
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(b.A, got.A) {
		t.Fatal("matrix changed in round trip")
	}
	if got.P != b.P {
		t.Fatalf("p = %d, want %d", got.P, b.P)
	}
	for k := range b.Parts {
		if got.Parts[k] != b.Parts[k] {
			t.Fatal("parts changed")
		}
	}
	for j := range b.Vector.InOwner {
		if got.Vector.InOwner[j] != b.Vector.InOwner[j] {
			t.Fatal("invec changed")
		}
	}
	if got.Volume() != b.Volume() || got.BSPCost() != b.BSPCost() {
		t.Fatal("metrics changed in round trip")
	}
}

func TestNewBundleValidates(t *testing.T) {
	a := gen.Tridiagonal(10)
	if _, err := NewBundle(a, make([]int, 5), 2, nil); err == nil {
		t.Fatal("short parts accepted")
	}
	bad := make([]int, a.NNZ())
	bad[0] = 9
	if _, err := NewBundle(a, bad, 2, nil); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	wrongVec := &metrics.VectorDistribution{InOwner: []int{0}, OutOwner: []int{0}}
	if _, err := NewBundle(a, make([]int, a.NNZ()), 2, wrongVec); err == nil {
		t.Fatal("mis-sized vector distribution accepted")
	}
}

func TestBundleValidateOwnerRange(t *testing.T) {
	b := partitionedBundle(t)
	b.Vector.InOwner[0] = 99
	if err := b.Validate(); err == nil {
		t.Fatal("bad invec owner accepted")
	}
	b = partitionedBundle(t)
	b.Vector.OutOwner[0] = -2
	if err := b.Validate(); err == nil {
		t.Fatal("bad outvec owner accepted")
	}
}

func TestReadRejectsCorruptFiles(t *testing.T) {
	b := partitionedBundle(t)
	dir := t.TempDir()
	if err := Write(dir, "m", b); err != nil {
		t.Fatal(err)
	}

	// corrupt the parts header
	partsPath := filepath.Join(dir, "m.parts")
	data, err := os.ReadFile(partsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partsPath, []byte("bogus\n"+string(data)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir, "m"); err == nil {
		t.Fatal("corrupt header accepted")
	}

	// restore, then corrupt a value
	if err := os.WriteFile(partsPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	lines[1] = "notanumber"
	if err := os.WriteFile(partsPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir, "m"); err == nil {
		t.Fatal("corrupt value accepted")
	}
}

func TestReadMissingFiles(t *testing.T) {
	if _, err := Read(t.TempDir(), "nope"); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

func TestReadInconsistentPartCounts(t *testing.T) {
	b := partitionedBundle(t)
	dir := t.TempDir()
	if err := Write(dir, "m", b); err != nil {
		t.Fatal(err)
	}
	// rewrite invec with a different p
	if err := writeIntFile(filepath.Join(dir, "m.invec"), b.P+1, b.Vector.InOwner); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir, "m"); err == nil {
		t.Fatal("inconsistent part counts accepted")
	}
}

func TestParseIntStreamEmptyHeader(t *testing.T) {
	if _, _, err := parseIntStream(strings.NewReader(""), "x"); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, _, err := parseIntStream(strings.NewReader("p 0\n"), "x"); err == nil {
		t.Fatal("zero part count accepted")
	}
	if _, _, err := parseIntStream(strings.NewReader("q 2\n"), "x"); err == nil {
		t.Fatal("bad tag accepted")
	}
}

func TestWriteFailsOnUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; permission bits are not enforced")
	}
	b := partitionedBundle(t)
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := Write(ro, "m", b); err == nil {
		t.Fatal("write into read-only dir succeeded")
	}
}

func TestWriteCreatesNestedDir(t *testing.T) {
	b := partitionedBundle(t)
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := Write(dir, "m", b); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir, "m"); err != nil {
		t.Fatal(err)
	}
}

func FuzzParseIntStream(f *testing.F) {
	f.Add("p 2\n0\n1\n")
	f.Add("p 1\n")
	f.Add("")
	f.Add("p -3\n5\n")
	f.Add("p 2\n0\n\n1\n")
	f.Fuzz(func(t *testing.T, input string) {
		p, vals, err := parseIntStream(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		if p < 1 {
			t.Fatalf("accepted part count %d", p)
		}
		_ = vals
	})
}
