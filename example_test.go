package mediumgrain_test

import (
	"context"
	"fmt"

	"mediumgrain"
	"mediumgrain/internal/gen"
)

// ExampleEngine_Bipartition partitions the paper's Fig. 1 matrix with
// the medium-grain method and the paper's iterative refinement.
func ExampleEngine_Bipartition() {
	a := mediumgrain.NewMatrix(3, 6)
	for _, nz := range [][2]int{
		{0, 0}, {0, 2}, {0, 3}, {0, 5},
		{1, 0}, {1, 1}, {1, 3}, {1, 4},
		{2, 1}, {2, 2}, {2, 4}, {2, 5},
	} {
		a.AppendPattern(nz[0], nz[1])
	}
	a.Canonicalize()

	eng := mediumgrain.New(mediumgrain.EngineConfig{})
	res, err := eng.Bipartition(context.Background(), mediumgrain.Request{
		Matrix: a,
		Method: mediumgrain.MethodMediumGrain,
		Seed:   42,
		Refine: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("parts per nonzero:", len(res.Parts))
	fmt.Println("balanced:", mediumgrain.Imbalance(res.Parts, 2) <= 0.03)
	// Output:
	// parts per nonzero: 12
	// balanced: true
}

// ExampleEngine_Refine applies Algorithm 2 to a deliberately bad
// bipartitioning and shows that the volume never increases.
func ExampleEngine_Refine() {
	a := gen.Laplacian2D(12, 12)
	parts := make([]int, a.NNZ())
	for k := range parts {
		parts[k] = k % 2 // awful: nonzeros alternate parts
	}
	eng := mediumgrain.New(mediumgrain.EngineConfig{})
	res, err := eng.Refine(context.Background(), mediumgrain.Request{Matrix: a, Parts: parts, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("volume reduced:", res.Volume < mediumgrain.Volume(a, parts, 2))
	// Output:
	// volume reduced: true
}

// ExampleEngine_Partition_recursive distributes a mesh over 8
// processors by recursive bisection.
func ExampleEngine_Partition_recursive() {
	a := gen.Laplacian2D(16, 16)
	eng := mediumgrain.New(mediumgrain.EngineConfig{})
	res, err := eng.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 3})
	if err != nil {
		panic(err)
	}
	used := map[int]bool{}
	for _, p := range res.Parts {
		used[p] = true
	}
	fmt.Println("parts used:", len(used))
	fmt.Println("within balance:", mediumgrain.Imbalance(res.Parts, 8) <= 0.03)
	// Output:
	// parts used: 8
	// within balance: true
}

// ExampleRunSpMV shows the full pipeline: partition, distribute, run the
// parallel multiplication, and check that measured traffic equals the
// model's communication volume.
func ExampleRunSpMV() {
	a := gen.WithRandomValues(mediumgrain.NewRNG(4), gen.Laplacian2D(10, 10))
	eng := mediumgrain.New(mediumgrain.EngineConfig{})
	res, err := eng.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 5})
	if err != nil {
		panic(err)
	}
	dist, err := mediumgrain.NewDistribution(a, res.Parts, 4)
	if err != nil {
		panic(err)
	}
	x := make([]float64, a.Cols)
	for j := range x {
		x[j] = 1
	}
	_, stats, err := mediumgrain.RunSpMV(a, dist, x)
	if err != nil {
		panic(err)
	}
	fmt.Println("traffic == volume:", stats.TotalWords() == res.Volume)
	// Output:
	// traffic == volume: true
}

// ExampleInitialSplit shows Algorithm 1's split: every nonzero goes to
// either the row group Ar or the column group Ac.
func ExampleInitialSplit() {
	a := gen.Tridiagonal(100)
	inRow := mediumgrain.InitialSplit(a, mediumgrain.SplitNNZ, mediumgrain.NewRNG(6))
	again := mediumgrain.InitialSplit(a, mediumgrain.SplitNNZ, mediumgrain.NewRNG(6))
	same := true
	for k := range inRow {
		if inRow[k] != again[k] {
			same = false
		}
	}
	fmt.Println("split covers all nonzeros:", len(inRow) == a.NNZ())
	fmt.Println("equal seeds, equal split:", same)
	// Output:
	// split covers all nonzeros: true
	// equal seeds, equal split: true
}

// ExampleEngine_Partition is the recommended entry point: one reusable
// engine, seeded requests, context-based cancellation.
func ExampleEngine_Partition() {
	a := gen.Laplacian2D(16, 16)

	// Create the engine once (e.g. at process start) and share it; a
	// negative worker count selects runtime.GOMAXPROCS(0).
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: -1})

	res, err := eng.Partition(context.Background(), mediumgrain.Request{
		Matrix: a,
		P:      8,
		Method: mediumgrain.MethodMediumGrain,
		Seed:   42, // equal seeds give bit-identical results at every worker count
		Refine: true,
	})
	if err != nil {
		panic(err)
	}
	ev, err := eng.Evaluate(context.Background(), mediumgrain.Request{Matrix: a, P: 8, Parts: res.Parts})
	if err != nil {
		panic(err)
	}
	fmt.Println("parts assigned:", len(res.Parts) == a.NNZ())
	fmt.Println("volumes agree:", ev.Volume == res.Volume)
	fmt.Println("balanced:", ev.Imbalance <= 0.03)
	// Output:
	// parts assigned: true
	// volumes agree: true
	// balanced: true
}

// ExampleEngine_search trades spare cores for cut quality: the engine
// races several deterministic seed variants of one request and returns
// the best, pruning variants that can no longer win.
func ExampleEngine_search() {
	a := gen.Laplacian2D(24, 24)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: -1})

	req := mediumgrain.Request{
		Matrix: a,
		P:      8,
		Method: mediumgrain.MethodMediumGrain,
		Seed:   42,
	}
	single, err := eng.Partition(context.Background(), req)
	if err != nil {
		panic(err)
	}

	// Race 8 variants (seeds 42..49); a time.Duration Budget could bound
	// the race's wall time. The winner — lowest volume, then lowest try —
	// is bit-identical across runs and worker counts.
	req.Search = mediumgrain.Search{Tries: 8}
	best, err := eng.Partition(context.Background(), req)
	if err != nil {
		panic(err)
	}
	fmt.Println("winner no worse than single run:", best.Volume <= single.Volume)
	fmt.Println("balanced:", mediumgrain.Imbalance(best.Parts, 8) <= 0.03)
	// Output:
	// winner no worse than single run: true
	// balanced: true
}

// ExampleEngine_cancellation shows cooperative cancellation: canceling
// the context makes the engine stop partitioning and return ctx.Err()
// promptly, with all scratch memory checked back in.
func ExampleEngine_cancellation() {
	a := gen.Laplacian2D(64, 64)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a real caller cancels on timeout, shutdown, or user abort

	_, err := eng.Partition(ctx, mediumgrain.Request{
		Matrix: a,
		P:      16,
		Method: mediumgrain.MethodMediumGrain,
		Seed:   1,
	})
	fmt.Println("err:", err)

	// The engine stays fully usable after a canceled request.
	res, err := eng.Partition(context.Background(), mediumgrain.Request{
		Matrix: a,
		P:      16,
		Method: mediumgrain.MethodMediumGrain,
		Seed:   1,
	})
	fmt.Println("retry ok:", err == nil && len(res.Parts) == a.NNZ())
	// Output:
	// err: context canceled
	// retry ok: true
}
