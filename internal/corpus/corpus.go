// Package corpus assembles the synthetic test collection standing in for
// the University of Florida sparse matrix collection used in the paper's
// evaluation (§IV). The paper tests 2264 matrices with 500–5,000,000
// nonzeros, split into 582 rectangular, 1007 structurally symmetric, and
// 675 square non-symmetric matrices; this corpus reproduces the same
// three-class structure from seeded generators at a configurable scale.
package corpus

import (
	"fmt"
	"math/rand"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/sparse"
)

// Instance is one named test matrix with its class label.
type Instance struct {
	Name  string
	A     *sparse.Matrix
	Class sparse.Class
}

// Options scales the corpus.
type Options struct {
	// Scale multiplies matrix dimensions (1 = default small corpus that
	// partitions in seconds; the experiments flag can raise it).
	Scale int
	// Seed drives every generator.
	Seed int64
}

// DefaultOptions returns the fast settings used by `go test`.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 20140519} }

// Build generates the corpus. Matrices are canonical patterns; every
// instance has at least 500 nonzeros at Scale >= 1, mirroring the paper's
// lower cutoff.
func Build(opts Options) []Instance {
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	s := opts.Scale
	rng := rand.New(rand.NewSource(opts.Seed))
	var out []Instance

	add := func(name string, a *sparse.Matrix) {
		out = append(out, Instance{Name: name, A: a, Class: a.Classify()})
	}

	// --- Structurally symmetric (meshes, graphs) ---
	add("lap2d-24", gen.Laplacian2D(24*s, 24*s))
	add("lap2d-rect", gen.Laplacian2D(12*s, 40*s))
	add("lap3d-8", gen.Laplacian3D(8*s, 8*s, 8*s))
	add("lap2d-perm", gen.PermuteSymmetric(rng, gen.Laplacian2D(20*s, 20*s)))
	add("band-5", gen.Banded(300*s, 5, 5))
	add("tridiag", gen.Tridiagonal(600*s))
	add("powerlaw-3", gen.PowerLawGraph(rng, 400*s, 3))
	add("powerlaw-6", gen.PowerLawGraph(rng, 250*s, 6))
	add("powerlaw-perm", gen.PermuteSymmetric(rng, gen.PowerLawGraph(rng, 300*s, 4)))
	add("blockdiag", gen.BlockDiagonal(rng, 160*s, 8, 40*s))
	add("arrow", gen.Arrow(600*s))
	add("kron-tri", gen.Kronecker(gen.Tridiagonal(30*s), gen.Tridiagonal(20)))

	// --- Square non-symmetric ---
	add("er-sq-1", gen.ErdosRenyi(rng, 300*s, 300*s, 0.012))
	add("er-sq-2", gen.ErdosRenyi(rng, 500*s, 500*s, 0.004))
	add("asym-lap", gen.Asymmetrize(rng, gen.Laplacian2D(22*s, 22*s), 0.4))
	add("asym-pl", gen.Asymmetrize(rng, gen.PowerLawGraph(rng, 350*s, 4), 0.5))
	add("asym-band", gen.Asymmetrize(rng, gen.Banded(400*s, 4, 4), 0.6))
	add("perm-band", gen.PermuteRows(rng, gen.Banded(350*s, 3, 3)))
	add("asym-block", gen.Asymmetrize(rng, gen.BlockDiagonal(rng, 140*s, 7, 60*s), 0.5))
	add("dirpl-4", gen.DirectedPowerLaw(rng, 400*s, 4))
	add("dirpl-7", gen.DirectedPowerLaw(rng, 250*s, 7))
	add("circulant", gen.Circulant(500*s, []int{0, 1, 3, 9}))
	add("upwind", gen.UpwindStencil(20*s, 24*s))

	// --- Rectangular ---
	add("bip-tall", gen.RandomBipartite(rng, 500*s, 120*s, 5))
	add("bip-wide", gen.RandomBipartite(rng, 120*s, 500*s, 8).Transpose())
	add("bip-mild", gen.RandomBipartite(rng, 300*s, 200*s, 5))
	add("er-rect-1", gen.ErdosRenyi(rng, 250*s, 400*s, 0.008))
	add("er-rect-2", gen.ErdosRenyi(rng, 600*s, 150*s, 0.01))
	add("stack-lap", gen.Stack(gen.Laplacian2D(12*s, 20*s), gen.ErdosRenyi(rng, 100*s, 240*s, 0.02)))
	add("bip-skew", gen.RandomBipartite(rng, 800*s, 80*s, 3))

	return out
}

// Find returns the named instance or an error listing available names.
func Find(instances []Instance, name string) (Instance, error) {
	for _, in := range instances {
		if in.Name == name {
			return in, nil
		}
	}
	names := make([]string, len(instances))
	for i, in := range instances {
		names[i] = in.Name
	}
	return Instance{}, fmt.Errorf("corpus: no instance %q (have %v)", name, names)
}

// GD97Like returns a small square symmetric matrix standing in for the
// gd97_b graph-drawing matrix of Fig. 3 (47×47, 264 nonzeros): a random
// geometric-style symmetric pattern with a similar size and density, on
// which 2D methods clearly beat 1D methods.
func GD97Like(seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	const n = 47
	a := sparse.New(n, n)
	for i := 0; i < n; i++ {
		a.AppendPattern(i, i)
	}
	// Random symmetric off-diagonal entries biased toward near-diagonal
	// neighbours plus a sprinkle of long-range links, echoing the mixed
	// local/global structure of graph-drawing matrices.
	target := 264
	for a.NNZ() < target-1 {
		i := rng.Intn(n)
		var j int
		if rng.Float64() < 0.7 {
			j = i + 1 + rng.Intn(4)
			if j >= n {
				continue
			}
		} else {
			j = rng.Intn(n)
			if i == j {
				continue
			}
		}
		a.AppendPattern(i, j)
		a.AppendPattern(j, i)
		a.Canonicalize()
	}
	return a
}
