// Package gen provides seeded synthetic sparse-matrix generators. They
// stand in for the University of Florida collection the paper evaluates
// on: each generator produces a family of patterns — meshes, graphs,
// rectangular relations — that populate the three matrix classes of the
// paper (rectangular, structurally symmetric, square non-symmetric).
//
// All generators are deterministic given the *rand.Rand they receive and
// return canonicalized (sorted, duplicate-free) pattern matrices.
package gen

import (
	"math/rand"

	"mediumgrain/internal/sparse"
)

// ErdosRenyi returns an m×n pattern with each entry present independently
// with probability density. For tiny densities it samples nonzeros
// directly instead of scanning the full grid.
func ErdosRenyi(rng *rand.Rand, m, n int, density float64) *sparse.Matrix {
	a := sparse.New(m, n)
	if m == 0 || n == 0 || density <= 0 {
		return a
	}
	target := int(density * float64(m) * float64(n))
	if target < 1 {
		target = 1
	}
	// Direct sampling: expected extra draws from collisions are small at
	// the densities used in the corpus (<= 0.1).
	seen := make(map[[2]int]struct{}, target)
	for len(seen) < target {
		i, j := rng.Intn(m), rng.Intn(n)
		key := [2]int{i, j}
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		a.AppendPattern(i, j)
	}
	a.Canonicalize()
	return a
}

// Laplacian2D returns the 5-point stencil on an nx×ny grid: the classic
// symmetric banded matrix from discretized PDEs.
func Laplacian2D(nx, ny int) *sparse.Matrix {
	n := nx * ny
	a := sparse.New(n, n)
	id := func(x, y int) int { return x*ny + y }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := id(x, y)
			a.AppendPattern(v, v)
			if x > 0 {
				a.AppendPattern(v, id(x-1, y))
			}
			if x < nx-1 {
				a.AppendPattern(v, id(x+1, y))
			}
			if y > 0 {
				a.AppendPattern(v, id(x, y-1))
			}
			if y < ny-1 {
				a.AppendPattern(v, id(x, y+1))
			}
		}
	}
	a.Canonicalize()
	return a
}

// Laplacian3D returns the 7-point stencil on an nx×ny×nz grid.
func Laplacian3D(nx, ny, nz int) *sparse.Matrix {
	n := nx * ny * nz
	a := sparse.New(n, n)
	id := func(x, y, z int) int { return (x*ny+y)*nz + z }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				v := id(x, y, z)
				a.AppendPattern(v, v)
				if x > 0 {
					a.AppendPattern(v, id(x-1, y, z))
				}
				if x < nx-1 {
					a.AppendPattern(v, id(x+1, y, z))
				}
				if y > 0 {
					a.AppendPattern(v, id(x, y-1, z))
				}
				if y < ny-1 {
					a.AppendPattern(v, id(x, y+1, z))
				}
				if z > 0 {
					a.AppendPattern(v, id(x, y, z-1))
				}
				if z < nz-1 {
					a.AppendPattern(v, id(x, y, z+1))
				}
			}
		}
	}
	a.Canonicalize()
	return a
}

// Banded returns an n×n matrix with the main diagonal plus lower/upper
// bandwidths bl and bu fully populated (a symmetric band when bl == bu).
func Banded(n, bl, bu int) *sparse.Matrix {
	a := sparse.New(n, n)
	for i := 0; i < n; i++ {
		lo, hi := i-bl, i+bu
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			a.AppendPattern(i, j)
		}
	}
	a.Canonicalize()
	return a
}

// Tridiagonal is Banded(n, 1, 1).
func Tridiagonal(n int) *sparse.Matrix { return Banded(n, 1, 1) }

// PowerLawGraph returns the symmetric adjacency pattern (with diagonal)
// of a Barabási–Albert-style preferential-attachment graph: n vertices,
// each new vertex attaching to d existing vertices with probability
// proportional to degree. Produces the heavy-tailed degree distributions
// typical of web/social matrices in the UF collection.
func PowerLawGraph(rng *rand.Rand, n, d int) *sparse.Matrix {
	a := sparse.New(n, n)
	if n == 0 {
		return a
	}
	// Repeated-endpoint list: vertex v appears once per incident edge,
	// so uniform sampling from the list is preferential attachment.
	endpoints := make([]int, 0, 2*n*d)
	addEdge := func(u, v int) {
		a.AppendPattern(u, v)
		a.AppendPattern(v, u)
		endpoints = append(endpoints, u, v)
	}
	for v := 0; v < n; v++ {
		a.AppendPattern(v, v)
		deg := d
		if v < d {
			deg = v // attach to all earlier vertices when too few exist
		}
		for t := 0; t < deg; t++ {
			var u int
			if len(endpoints) == 0 {
				u = rng.Intn(v)
			} else {
				u = endpoints[rng.Intn(len(endpoints))]
				if u >= v {
					u = rng.Intn(v)
				}
			}
			addEdge(v, u)
		}
	}
	a.Canonicalize()
	return a
}

// RandomBipartite returns an m×n rectangular pattern where each row gets
// between 1 and maxPerRow nonzeros in uniformly random columns — a
// term-by-document / constraint-matrix stand-in.
func RandomBipartite(rng *rand.Rand, m, n, maxPerRow int) *sparse.Matrix {
	a := sparse.New(m, n)
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(maxPerRow)
		for t := 0; t < k; t++ {
			a.AppendPattern(i, rng.Intn(n))
		}
	}
	a.Canonicalize()
	return a
}

// BlockDiagonal returns an n×n matrix of `blocks` dense diagonal blocks
// with `coupling` extra random off-block symmetric couplings.
func BlockDiagonal(rng *rand.Rand, n, blocks, coupling int) *sparse.Matrix {
	a := sparse.New(n, n)
	if blocks < 1 {
		blocks = 1
	}
	size := (n + blocks - 1) / blocks
	for b := 0; b < blocks; b++ {
		lo := b * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			for j := lo; j < hi; j++ {
				a.AppendPattern(i, j)
			}
		}
	}
	for t := 0; t < coupling; t++ {
		i, j := rng.Intn(n), rng.Intn(n)
		a.AppendPattern(i, j)
		a.AppendPattern(j, i)
	}
	a.Canonicalize()
	return a
}

// Arrow returns the n×n arrow pattern: dense first row and column plus
// the diagonal. A classic adversarial case for 1D partitioning.
func Arrow(n int) *sparse.Matrix {
	a := sparse.New(n, n)
	for i := 0; i < n; i++ {
		a.AppendPattern(i, i)
		if i > 0 {
			a.AppendPattern(0, i)
			a.AppendPattern(i, 0)
		}
	}
	a.Canonicalize()
	return a
}

// Asymmetrize removes each strictly-lower-triangular mirror entry with
// probability drop, producing square non-symmetric patterns from
// symmetric ones.
func Asymmetrize(rng *rand.Rand, a *sparse.Matrix, drop float64) *sparse.Matrix {
	b := sparse.New(a.Rows, a.Cols)
	for k := range a.RowIdx {
		i, j := a.RowIdx[k], a.ColIdx[k]
		if i > j && rng.Float64() < drop {
			continue
		}
		b.AppendPattern(i, j)
	}
	b.Canonicalize()
	return b
}

// Kronecker returns the Kronecker (tensor) product pattern of a and b,
// the generator behind Graph500-style RMAT matrices.
func Kronecker(a, b *sparse.Matrix) *sparse.Matrix {
	c := sparse.New(a.Rows*b.Rows, a.Cols*b.Cols)
	for ka := range a.RowIdx {
		for kb := range b.RowIdx {
			c.AppendPattern(a.RowIdx[ka]*b.Rows+b.RowIdx[kb], a.ColIdx[ka]*b.Cols+b.ColIdx[kb])
		}
	}
	c.Canonicalize()
	return c
}

// PermuteRows returns a copy of a with rows permuted by a random
// permutation; destroys banded structure without changing row/col counts.
func PermuteRows(rng *rand.Rand, a *sparse.Matrix) *sparse.Matrix {
	perm := rng.Perm(a.Rows)
	b := sparse.New(a.Rows, a.Cols)
	for k := range a.RowIdx {
		b.AppendPattern(perm[a.RowIdx[k]], a.ColIdx[k])
	}
	b.Canonicalize()
	return b
}

// PermuteSymmetric applies the same random permutation to rows and
// columns, preserving structural symmetry.
func PermuteSymmetric(rng *rand.Rand, a *sparse.Matrix) *sparse.Matrix {
	if a.Rows != a.Cols {
		return PermuteRows(rng, a)
	}
	perm := rng.Perm(a.Rows)
	b := sparse.New(a.Rows, a.Cols)
	for k := range a.RowIdx {
		b.AppendPattern(perm[a.RowIdx[k]], perm[a.ColIdx[k]])
	}
	b.Canonicalize()
	return b
}

// Stack places a on top of b (a.Cols must equal b.Cols), producing tall
// rectangular matrices.
func Stack(a, b *sparse.Matrix) *sparse.Matrix {
	c := sparse.New(a.Rows+b.Rows, a.Cols)
	for k := range a.RowIdx {
		c.AppendPattern(a.RowIdx[k], a.ColIdx[k])
	}
	for k := range b.RowIdx {
		c.AppendPattern(a.Rows+b.RowIdx[k], b.ColIdx[k])
	}
	c.Canonicalize()
	return c
}

// WithRandomValues attaches uniform (0,1] values to a pattern matrix,
// for SpMV verification.
func WithRandomValues(rng *rand.Rand, a *sparse.Matrix) *sparse.Matrix {
	b := a.Clone()
	b.Val = make([]float64, b.NNZ())
	for k := range b.Val {
		b.Val[k] = rng.Float64() + 0.5
	}
	return b
}
