package corpus

import (
	"strings"
	"testing"

	"mediumgrain/internal/sparse"
)

func TestBuildCorpusClasses(t *testing.T) {
	instances := Build(DefaultOptions())
	if len(instances) < 20 {
		t.Fatalf("corpus has only %d instances", len(instances))
	}
	perClass := make(map[sparse.Class]int)
	for _, in := range instances {
		perClass[in.Class]++
	}
	for _, c := range []sparse.Class{sparse.ClassRectangular, sparse.ClassSymmetric, sparse.ClassSquareNonSym} {
		if perClass[c] < 3 {
			t.Fatalf("class %v has only %d instances", c, perClass[c])
		}
	}
}

func TestCorpusInstancesValid(t *testing.T) {
	for _, in := range Build(DefaultOptions()) {
		if err := in.A.Validate(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if err := in.A.CheckDuplicates(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if in.A.NNZ() < 500 {
			t.Errorf("%s: only %d nonzeros (paper cutoff is 500)", in.Name, in.A.NNZ())
		}
		if got := in.A.Classify(); got != in.Class {
			t.Errorf("%s: label %v but Classify says %v", in.Name, in.Class, got)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := Build(DefaultOptions())
	b := Build(DefaultOptions())
	if len(a) != len(b) {
		t.Fatal("corpus size not deterministic")
	}
	for i := range a {
		if a[i].Name != b[i].Name || !sparse.Equal(a[i].A, b[i].A) {
			t.Fatalf("instance %s differs between builds", a[i].Name)
		}
	}
}

func TestCorpusNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, in := range Build(DefaultOptions()) {
		if seen[in.Name] {
			t.Fatalf("duplicate instance name %q", in.Name)
		}
		seen[in.Name] = true
	}
}

func TestCorpusScaleCoercion(t *testing.T) {
	a := Build(Options{Scale: 0, Seed: 1})
	b := Build(Options{Scale: 1, Seed: 1})
	if len(a) != len(b) {
		t.Fatal("scale 0 must coerce to 1")
	}
}

func TestFind(t *testing.T) {
	instances := Build(DefaultOptions())
	in, err := Find(instances, instances[0].Name)
	if err != nil || in.Name != instances[0].Name {
		t.Fatalf("Find: %v", err)
	}
	if _, err := Find(instances, "does-not-exist"); err == nil {
		t.Fatal("Find accepted a bogus name")
	}
}

func TestFindUnknownNameListsAvailable(t *testing.T) {
	instances := Build(DefaultOptions())
	_, err := Find(instances, "no-such-matrix")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	// The error is the server's 400 body for a bad corpus name; it must
	// identify the request and enumerate what exists.
	msg := err.Error()
	if !strings.Contains(msg, "no-such-matrix") {
		t.Fatalf("error %q does not name the missing instance", msg)
	}
	for _, in := range instances[:3] {
		if !strings.Contains(msg, in.Name) {
			t.Fatalf("error %q does not list available instance %q", msg, in.Name)
		}
	}
}

func TestFindOnEmptyCorpus(t *testing.T) {
	if _, err := Find(nil, "anything"); err == nil {
		t.Fatal("Find on empty corpus must error")
	}
}

func TestGD97Like(t *testing.T) {
	a := GD97Like(1)
	if a.Rows != 47 || a.Cols != 47 {
		t.Fatalf("dims %dx%d, want 47x47", a.Rows, a.Cols)
	}
	// target is 264 nonzeros like gd97_b; allow the construction's ±1
	if a.NNZ() < 260 || a.NNZ() > 266 {
		t.Fatalf("NNZ = %d, want ~264", a.NNZ())
	}
	if a.Classify() != sparse.ClassSymmetric {
		t.Fatal("gd97 stand-in must be symmetric")
	}
	b := GD97Like(1)
	if !sparse.Equal(a, b) {
		t.Fatal("GD97Like not deterministic")
	}
}
