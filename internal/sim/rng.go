package sim

import "math/rand"

// Shape of math/rand's generator. rand.NewSource(seed) is an additive
// lagged-Fibonacci register of rngLen words with tap distance rngTap,
// filled by a Park–Miller sequence x_{j+1} = seedMul·x_j mod seedMod
// started at the seed normalised into [1, seedMod).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	seedMul  = 48271
	seedMod  = 1<<31 - 1
	seedZero = 89482311 // what rngSource.Seed substitutes for a zero seed
)

var _ [rngLen]int64 = rngCooked // the copied table is complete

// seedPow[i] = seedMul^(21+3i) mod seedMod: the multiplier taking the
// normalised seed x₀ to x_{21+3i}, the first of the three Park–Miller
// values that make up initial register entry i.
var seedPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for range 21 {
		x = x * seedMul % seedMod
	}
	for i := range p {
		p[i] = x
		for range 3 {
			x = x * seedMul % seedMod
		}
	}
	return p
}()

// lazySource yields exactly the stream of rand.NewSource(seed), Uint64
// included, without building its 607-word register up front.
//
// Two facts about the register make that cheap. Initial entry i is
// (x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}) ^ rngCooked[i], so it
// costs three modular multiplications from seedPow. And draw k reads
// entries 333−k and 606−k and overwrites only the first, so each of the
// first rngTap draws sums two entries no earlier draw has touched:
// draw k < rngTap is vec₀[333−k] + vec₀[606−k]. The source therefore
// keeps only the seed and its draw count. Its draw rngTap would read
// an overwritten entry, so there it hands over to rand.NewSource
// advanced by rngTap draws, which is the same state.
type lazySource struct {
	x0  uint64        // seed normalised as rngSource.Seed does
	n   int           // draws served from the closed form
	src rand.Source64 // the full generator once n reaches rngTap
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed resets the stream to that of rand.NewSource(seed).
func (s *lazySource) Seed(seed int64) {
	x := seed % seedMod
	if x < 0 {
		x += seedMod
	}
	if x == 0 {
		x = seedZero
	}
	*s = lazySource{x0: uint64(x)}
}

// entry returns initial register entry i.
func (s *lazySource) entry(i int) int64 {
	x := s.x0 * seedPow[i] % seedMod
	y := x * seedMul % seedMod
	z := y * seedMul % seedMod
	return int64(x)<<40 ^ int64(y)<<20 ^ int64(z) ^ rngCooked[i]
}

// Uint64 returns the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.src == nil {
		if k := s.n; k < rngTap {
			s.n++
			return uint64(s.entry(rngLen-rngTap-1-k) + s.entry(rngLen-1-k))
		}
		// x0 is its own normalisation, so this is rand.NewSource(seed).
		s.src = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range rngTap {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 returns the next value of the stream with its top bit cleared,
// as rngSource.Int63 does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
