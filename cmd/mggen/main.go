// Command mggen generates synthetic sparse test matrices in Matrix
// Market format — the same generators that build the evaluation corpus.
//
// Usage:
//
//	mggen -kind lap2d -n 32 -out grid.mtx
//	mggen -kind powerlaw -n 1000 -d 4 -seed 3 -out web.mtx
//	mggen -kind bipartite -m 5000 -n 800 -d 5 -out termdoc.mtx
//
// Kinds: lap2d, lap3d, tridiag, banded, powerlaw, erdos, bipartite,
// blockdiag, arrow, gd97like.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mggen: ")

	var (
		kind    = flag.String("kind", "lap2d", "generator kind")
		m       = flag.Int("m", 100, "rows (or first grid dimension)")
		n       = flag.Int("n", 100, "cols (or second grid dimension)")
		k       = flag.Int("k", 10, "third grid dimension (lap3d)")
		d       = flag.Int("d", 4, "degree / nonzeros-per-row / bandwidth")
		density = flag.Float64("density", 0.01, "density (erdos)")
		blocks  = flag.Int("blocks", 8, "blocks (blockdiag)")
		seed    = flag.Int64("seed", 1, "random seed")
		outPath = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var a *sparse.Matrix
	switch *kind {
	case "lap2d":
		a = gen.Laplacian2D(*m, *n)
	case "lap3d":
		a = gen.Laplacian3D(*m, *n, *k)
	case "tridiag":
		a = gen.Tridiagonal(*n)
	case "banded":
		a = gen.Banded(*n, *d, *d)
	case "powerlaw":
		a = gen.PowerLawGraph(rng, *n, *d)
	case "erdos":
		a = gen.ErdosRenyi(rng, *m, *n, *density)
	case "bipartite":
		a = gen.RandomBipartite(rng, *m, *n, *d)
	case "blockdiag":
		a = gen.BlockDiagonal(rng, *n, *blocks, *d**n/10)
	case "arrow":
		a = gen.Arrow(*n)
	case "gd97like":
		a = corpus.GD97Like(*seed)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		out = f
	}
	if err := sparse.WriteMatrixMarket(out, a); err != nil {
		log.Fatal(err)
	}
	// A failed Close can mean the file is incomplete, so it is an error.
	if out != os.Stdout {
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "generated %v (class %v)\n", a, a.Classify())
}
