package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// defaultEps is the load-imbalance bound every request runs with (the
// Engine's and the service's default).
const defaultEps = 0.03

// checkResult is the output oracle applied to every timed result: the
// parts vector assigns each nonzero a part in [0, p), the parts are
// balanced within eps, and an independent volume recount equals the
// volume the program reported.
func checkResult(a *sparse.Matrix, parts []int, p int, eps float64, volume int64) error {
	if err := metrics.ValidateParts(a, parts, p); err != nil {
		return err
	}
	if err := metrics.CheckBalance(parts, p, eps); err != nil {
		return err
	}
	if v := metrics.Volume(a, parts, p); v != volume {
		return fmt.Errorf("volume recount %d differs from reported volume %d", v, volume)
	}
	return nil
}

// partsHash fingerprints a parts vector, so repeated results of one
// input can be compared without keeping every vector.
func partsHash(parts []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}
