package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtest"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked children with different labels produced same first value")
	}
}

func TestForkReproducible(t *testing.T) {
	a := New(7).Fork(3)
	b := New(7).Fork(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("forked streams diverged at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

// TestUint64nUnbiased distinguishes Lemire rejection from the old
// Uint64()%n at a bound chosen to make modulo bias enormous: with
// n = 3<<62, the residues [0, 1<<62) are hit by two 64-bit ranges under
// %n but only one under unbiased generation, so the head fraction is
// 1/2 biased vs 1/3 unbiased. A few thousand draws separate the two by
// dozens of standard deviations.
func TestUint64nUnbiased(t *testing.T) {
	s := New(61)
	const n = uint64(3) << 62
	const draws = 30000
	head := 0
	for i := 0; i < draws; i++ {
		v := s.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n(%d) = %d out of range", n, v)
		}
		if v < 1<<62 {
			head++
		}
	}
	frac := float64(head) / draws
	if math.Abs(frac-1.0/3) > 0.02 {
		t.Fatalf("head fraction %v, want ~1/3 (1/2 would mean modulo bias)", frac)
	}
}

// TestUint64nSmallBoundUniform sanity-checks per-bucket uniformity at a
// small bound (chi-square style tolerance on each bucket).
func TestUint64nSmallBoundUniform(t *testing.T) {
	s := New(67)
	const n = 7
	const draws = 140000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	for b, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-1.0/n) > 0.01 {
			t.Fatalf("bucket %d frac %v, want ~%v", b, frac, 1.0/n)
		}
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermProperty(t *testing.T) {
	s := New(19)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", frac)
	}
}

func TestZipfRange(t *testing.T) {
	s := New(37)
	z := NewZipf(s, 0.98, 100)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With exponent ~0.98 over 10000 items, the top 20% should draw
	// roughly 80% of the samples (the paper's Filebench shape).
	s := New(41)
	z := NewZipf(s, 0.98, 10000)
	head := z.HeadMass(0.2)
	if head < 0.7 || head > 0.9 {
		t.Fatalf("top-20%% mass = %v, want ~0.8", head)
	}
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if z.Next() < 2000 {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-head) > 0.02 {
		t.Fatalf("empirical head mass %v vs analytic %v", frac, head)
	}
}

func TestZipfUniformWhenExponentZero(t *testing.T) {
	s := New(43)
	z := NewZipf(s, 0, 10)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d frac %v, want ~0.1", i, frac)
		}
	}
}

func TestZipfRankOrdering(t *testing.T) {
	s := New(47)
	z := NewZipf(s, 1.1, 50)
	counts := make([]int, 50)
	for i := 0; i < 200000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[40] {
		t.Fatalf("zipf counts not rank-ordered: %v %v %v", counts[0], counts[10], counts[40])
	}
}

// TestZipfDrawDigests pins the first million Next() draws of two
// samplers by SHA-256 (each draw as a little-endian uint32; the pins
// are in testdata/digests.txt): any change to how random bits map to
// indexes moves every seeded run, so it must move these too.
func TestZipfDrawDigests(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		n        int
		exponent float64
	}{{1, 500, 0.98}, {2, 10000, 2}} {
		z := NewZipf(New(tc.seed), tc.exponent, tc.n)
		h := sha256.New()
		var b [4]byte
		for i := 0; i < 1_000_000; i++ {
			binary.LittleEndian.PutUint32(b[:], uint32(z.Next()))
			h.Write(b[:])
		}
		simtest.Pin(t, fmt.Sprintf("zipf/seed=%d/n=%d/s=%v", tc.seed, tc.n, tc.exponent), hex.EncodeToString(h.Sum(nil)))
	}
}

// searchCum is the sampler's specification: the smallest i with
// cum[i] >= u, clamped to len(cum)-1, found by binary search.
func searchCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfMatchesBinarySearch: the guide-table sampler returns, draw
// for draw, the index a binary search over the same table returns —
// at tiny populations, at the paper's and the web trace's, and at
// exponents whose tables end in long runs of cum entries equal to 1 —
// and so does index at the bucket edges b/n and their neighbours,
// where u*n rounds into the wrong bucket.
func TestZipfMatchesBinarySearch(t *testing.T) {
	const draws = 100_000
	for _, n := range []int{1, 2, 3, 7, 500, 10_000, 302_000} {
		for _, exponent := range []float64{0, 0.5, 0.98, 1.1, 2, 5} {
			z := NewZipf(New(uint64(n)), exponent, n)
			ref := New(uint64(n))
			for d := 0; d < draws; d++ {
				u := ref.Float64()
				if got, want := z.Next(), searchCum(z.cum, u); got != want {
					t.Fatalf("n %d exponent %v draw %d (u %v): Next %d, binary search %d", n, exponent, d, u, got, want)
				}
			}
			for b := 0; b <= n; b++ {
				edge := float64(b) / float64(n)
				for _, u := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := z.index(u), searchCum(z.cum, u); got != want {
						t.Fatalf("n %d exponent %v u %v: index %d, binary search %d", n, exponent, u, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkZipfNext prices one draw at the benchmark's population, the
// paper's private directory and the web trace's file count. Medians of
// five alternating runs on the 2-vCPU reference host, ns/op, binary
// search (parent 6c8fc30) → guide table: 47.7 → 17.7, 69.7 → 16.5,
// 103.0 → 20.0.
func BenchmarkZipfNext(b *testing.B) {
	for _, n := range []int{500, 10_000, 302_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			z := NewZipf(New(1), 0.98, n)
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += z.Next()
			}
			zipfSink = sink
		})
	}
}

var zipfSink int

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(New(1), 1, 0)
}

func TestShuffleSwapCount(t *testing.T) {
	s := New(53)
	xs := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), xs...)
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[string]bool)
	for _, v := range xs {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("shuffle lost element %q", v)
		}
	}
}
