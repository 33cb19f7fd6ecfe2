package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mediumgrain/internal/metrics"
)

// TestPartitionCompactOneDMethodsValid covers the 1D models on compact
// subproblems. Their hypergraph vertices are matrix columns/rows, so
// compaction drops the empty ones from the vertex universe; what must
// hold is that every result is a valid balanced partitioning and that
// it is bit-identical across worker counts.
func TestPartitionCompactOneDMethodsValid(t *testing.T) {
	for name, a := range parallelTestMatrices() {
		for _, method := range []Method{MethodRowNet, MethodColNet, MethodLocalBest} {
			opts := DefaultOptions()
			ref, err := partitionInline(a, 8, method, opts, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, method, err)
			}
			if err := metrics.ValidateParts(a, ref.Parts, 8); err != nil {
				t.Errorf("%s/%v: %v", name, method, err)
			}
			if err := metrics.CheckBalance(ref.Parts, 8, opts.Eps); err != nil {
				t.Errorf("%s/%v: %v", name, method, err)
			}
			got, err := NewEngine(4).Partition(context.Background(), a, 8, method, opts, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, method, err)
			}
			if !reflect.DeepEqual(got.Parts, ref.Parts) {
				t.Errorf("%s/%v: workers=4 differs from the inline engine", name, method)
			}
		}
	}
}
