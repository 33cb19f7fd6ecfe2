package hgpart

import "math/rand"

// splitmixGamma is splitmix64's state increment: the odd integer
// nearest 2⁶⁴/φ.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 returns the output of the splitmix64 generator at state x.
func splitmix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitmixSource is a rand.Source64 whose whole state is one uint64:
// seeded with s, its i-th output is splitmix64(s + i·γ), the generator
// of Steele, Lea and Flood (OOPSLA 2014). Seeding is one store, where
// math/rand's default source runs a 1,841-step seeding chain over a
// 4.9 KB table.
type splitmixSource struct{ state uint64 }

// Seed restarts the sequence at seed.
func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next output and advances the state by γ.
func (s *splitmixSource) Uint64() uint64 {
	x := splitmix64(s.state)
	s.state += splitmixGamma
	return x
}

// Int63 returns the top 63 bits of the next output.
func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewStream returns a random stream over a splitmixSource seeded with
// seed. Every stream below a call's root is one: a bisection node's
// children, each initial-partition try, and ParallelFM's side stream
// and raced tries. A bisection node seeds two children and one stream
// per try (four by default), and a leaf never draws from its stream, so
// seeding has to cost next to nothing. The root stream stays the
// caller's.
func NewStream(seed int64) *rand.Rand {
	return rand.New(&splitmixSource{state: uint64(seed)})
}
