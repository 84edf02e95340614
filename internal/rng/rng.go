// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator. Every component that needs
// randomness derives a Source from the experiment seed so that entire
// simulation runs are bit-for-bit reproducible.
//
// The generator is splitmix64: tiny state, excellent statistical quality
// for simulation purposes, and trivially seedable. It is NOT
// cryptographically secure and must never be used for security purposes.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// Source is a deterministic pseudo-random source. The zero value is a
// valid generator seeded with 0; prefer New to make seeding explicit.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources created with the
// same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives a new independent Source from s. The derived stream is a
// deterministic function of s's current state, so forking at the same
// point in two identical runs yields identical children. The label
// decorrelates children forked back to back.
func (s *Source) Fork(label uint64) *Source {
	return New(s.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next value of the splitmix64 stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method. A plain Uint64()%n is biased toward
// small residues whenever n does not divide 2^64; the bias is tiny for
// small n but systematic, and it skews every shuffle and bounded draw in
// the simulator. Lemire maps the 64-bit draw into [0, n) via the high
// half of a 128-bit product and rejects only the sliver of draws that
// land in the unrepresentable remainder, so every value in [0, n) is
// exactly equally likely. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		// thresh = 2^64 mod n: draws with lo below it fall in the
		// truncated final bucket and must be redrawn. The rejection
		// probability is < n/2^64, so the loop essentially never spins
		// for simulator-sized n.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(s.Uint64n(uint64(n)))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)). It
// consumes exactly the same random stream as Perm(len(p)), so callers
// can switch to a reusable buffer without perturbing seeded runs.
func (s *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
}

// ShuffleInts shuffles xs in place (Fisher-Yates).
func (s *Source) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples from a Zipf(s=exponent) distribution over [0, n) by
// inverting a precomputed cumulative table: a draw u maps to the
// smallest i with cum[i] >= u. A guide table (Chen and Asau's cutpoint
// method) starts that search within a step or two of its answer, so
// construction is O(n) and sampling expected O(1), and the index drawn
// for each u is exactly the one a binary search over cum returns.
type Zipf struct {
	src   *Source
	cum   []float64 // cum[i] = P(X <= i)
	guide []int32   // guide[b] = smallest i with cum[i] >= b/n, clamped to n-1
}

// lastTable is the most recently built pair of tables. A generator
// builds one sampler per client, all of one shape, and the tables are
// never written once built, so consecutive samplers of a shape share
// them: built once, and small enough to stay in cache while every
// client draws.
var lastTable struct {
	sync.Mutex
	exponent float64
	cum      []float64
	guide    []int32
}

// NewZipf builds a sampler over [0, n) with the given exponent. An
// exponent near 0.98 yields the classic "80% of accesses to 20% of
// files" shape used by the paper's Filebench workload. It panics if
// n <= 0 or exponent < 0.
func NewZipf(src *Source, exponent float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	if exponent < 0 {
		panic("rng: NewZipf called with negative exponent")
	}
	lastTable.Lock()
	defer lastTable.Unlock()
	if len(lastTable.cum) != n || lastTable.exponent != exponent {
		lastTable.exponent = exponent
		lastTable.cum, lastTable.guide = zipfTables(exponent, n)
	}
	return &Zipf{src: src, cum: lastTable.cum, guide: lastTable.guide}
}

// zipfTables builds the cumulative table of Zipf(exponent) over [0, n)
// and its guide.
func zipfTables(exponent float64, n int) ([]float64, []int32) {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), exponent)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	// n+1 buckets: u*n can round up to n when u is just below 1.
	guide := make([]int32, n+1)
	i := 0
	for b := range guide {
		for i < n-1 && cum[i] < float64(b)/float64(n) {
			i++
		}
		guide[b] = int32(i)
	}
	return cum, guide
}

// N returns the population size.
func (z *Zipf) N() int { return len(z.cum) }

// Next returns the next sample in [0, N()). Rank 0 is the most popular.
func (z *Zipf) Next() int { return z.index(z.src.Float64()) }

// index returns the smallest i with cum[i] >= u, clamped to n-1, for u
// in [0, 1). Its bucket's guide entry is that index whenever u*n rounds
// down; when it rounds up into the next bucket the entry may overshoot,
// and the first loop walks back.
func (z *Zipf) index(u float64) int {
	cum := z.cum
	i := int(z.guide[int(u*float64(len(cum)))])
	for i > 0 && cum[i-1] >= u {
		i--
	}
	for i < len(cum)-1 && cum[i] < u {
		i++
	}
	return i
}

// HeadMass returns the probability mass of the top frac of the
// population, e.g. HeadMass(0.2) reports how much traffic the most
// popular 20% of items receive.
func (z *Zipf) HeadMass(frac float64) float64 {
	if len(z.cum) == 0 {
		return 0
	}
	k := int(frac * float64(len(z.cum)))
	if k <= 0 {
		return 0
	}
	if k > len(z.cum) {
		k = len(z.cum)
	}
	return z.cum[k-1]
}
