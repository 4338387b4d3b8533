package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for SplitMix64 with initial state 0 are well known:
	// the first three outputs of the sequence.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("same-seed generators diverged at step %d: %#x vs %#x", i, x, y)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d identical outputs of 64", same)
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	// Streams derived from distinct (node, round) pairs must differ even when
	// the global seed is identical.
	seen := make(map[uint64]bool)
	for node := uint64(0); node < 32; node++ {
		for round := uint64(0); round < 32; round++ {
			v := Derive(7, node, round).Uint64()
			if seen[v] {
				t.Fatalf("stream collision for node=%d round=%d", node, round)
			}
			seen[v] = true
		}
	}
}

func TestReseedMatchesDerive(t *testing.T) {
	r := New(0)
	for i := uint64(0); i < 20; i++ {
		r.Reseed(99, i, 2*i+1)
		fresh := Derive(99, i, 2*i+1)
		for j := 0; j < 10; j++ {
			if a, b := r.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("Reseed stream diverged from Derive at i=%d j=%d", i, j)
			}
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared check over 10 buckets; the statistic should be far below
	// the df=9 99.9% critical value (27.88) for a healthy generator.
	r := New(12345)
	const buckets, samples = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi-squared statistic %.2f too large; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const samples = 100000
	for i := 0; i < samples; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / samples; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBoolFairness(t *testing.T) {
	r := New(4)
	heads := 0
	const samples = 100000
	for i := 0; i < samples; i++ {
		if r.Bool() {
			heads++
		}
	}
	if frac := float64(heads) / samples; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("Bool fraction %.4f too far from 0.5", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of Perm(4) should be uniform over {0,1,2,3}.
	counts := make([]int, 4)
	r := New(777)
	const samples = 40000
	for i := 0; i < samples; i++ {
		counts[r.Perm(4)[0]]++
	}
	for v, c := range counts {
		frac := float64(c) / samples
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("Perm(4)[0]=%d frequency %.4f too far from 0.25", v, frac)
		}
	}
}

func TestMix3Distinct(t *testing.T) {
	if Mix3(1, 2, 3) == Mix3(1, 3, 2) {
		t.Fatal("Mix3 is symmetric in its arguments; streams would collide")
	}
	if Mix3(0, 0, 0) == Mix3(0, 0, 1) {
		t.Fatal("Mix3 ignores its third argument")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkDerive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Derive(1, uint64(i), 7)
	}
}

func BenchmarkReseed(b *testing.B) {
	r := New(0)
	for i := 0; i < b.N; i++ {
		r.Reseed(1, uint64(i), 7)
	}
}

// TestFillUint64sMatchesPerCallDraws pins the batch API's contract: a fill
// of any size — including fills split at arbitrary boundaries — produces
// exactly the values the same number of Uint64 calls would, and leaves the
// stream in the same state (draws after the batch still agree).
func TestFillUint64sMatchesPerCallDraws(t *testing.T) {
	for _, sizes := range [][]int{{0}, {1}, {257}, {3, 0, 64, 1, 9}} {
		batch, scalar := New(99), New(99)
		for _, n := range sizes {
			dst := make([]uint64, n)
			batch.FillUint64s(dst)
			for i, got := range dst {
				if want := scalar.Uint64(); got != want {
					t.Fatalf("fill sizes %v: value %d = %#x, want per-call %#x", sizes, i, got, want)
				}
			}
		}
		for i := 0; i < 16; i++ {
			if got, want := batch.Uint64(), scalar.Uint64(); got != want {
				t.Fatalf("fill sizes %v: stream diverged %d draws after the batch: %#x vs %#x", sizes, i, got, want)
			}
		}
	}
}

// TestFillZeroAlloc pins the batch fill allocation-free: it exists for
// tight loops that must not touch the heap.
func TestFillZeroAlloc(t *testing.T) {
	r := New(5)
	words := make([]uint64, 256)
	if n := testing.AllocsPerRun(100, func() {
		r.FillUint64s(words)
	}); n != 0 {
		t.Fatalf("batch fill allocated %v times per run", n)
	}
}

func BenchmarkFillUint64s(b *testing.B) {
	r := New(1)
	dst := make([]uint64, 1024)
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		r.FillUint64s(dst)
	}
}

// FuzzAt holds At to the stepped generator: for any seed and any k ≤ 64,
// At(seed, k) is the value the (k+1)-th Uint64 call of New(seed) returns.
func FuzzAt(f *testing.F) {
	g := uint64(golden)
	for _, seed := range []uint64{0, 1, 42, -g, -(2 * g), -(3 * g), -(4 * g), ^uint64(0)} {
		for _, k := range []uint8{0, 1, 2, 3, 64} {
			f.Add(seed, k)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, k uint8) {
		k %= 65
		r := New(seed)
		for i := uint8(0); i < k; i++ {
			r.Uint64()
		}
		if got, want := At(seed, uint32(k)), r.Uint64(); got != want {
			t.Fatalf("At(%#x, %d) = %#x, want the stepped generator's %#x", seed, k, got, want)
		}
	})
}

// TestSeedZeroesAtMostOneWord pins the argument in Seed's comment. Seed
// −iγ makes word i-1 zero, because SplitMix64 feeds that word the input
// 0, and leaves the other three nonzero. Each such generator still steps
// as At computes it.
func TestSeedZeroesAtMostOneWord(t *testing.T) {
	for i := 1; i <= 4; i++ {
		seed := -uint64(i) * golden
		r := New(seed)
		for w, word := range r.s {
			if (word == 0) != (w == i-1) {
				t.Fatalf("seed -%dγ: state %#x, want exactly word %d zero", i, r.s, i-1)
			}
		}
		for k := uint32(0); k <= 64; k++ {
			if got, want := At(seed, k), r.Uint64(); got != want {
				t.Fatalf("seed -%dγ: At(seed, %d) = %#x, want the stepped generator's %#x", i, k, got, want)
			}
		}
	}
}

// TestBoundedRejectsOnlyTheBiasedSliver pins Lemire's rule at its edges: a
// draw is rejected exactly when the low word of x·n falls below 2^64 mod n.
func TestBoundedRejectsOnlyTheBiasedSliver(t *testing.T) {
	for _, c := range []struct {
		x, n, v uint64
		ok      bool
	}{
		{0, 3, 0, false},          // 2^64 mod 3 = 1 and the low word is 0
		{1, 3, 0, true},           // low word 3
		{^uint64(0), 3, 2, true},  // the largest draw maps to n-1
		{1 << 63, 2, 1, true},     // 2^64 mod 2 = 0: nothing is rejected
		{^uint64(0), 1, 0, true},  // n = 1 always yields 0
		{0, ^uint64(0), 0, false}, // 2^64 mod (2^64-1) = 1 and the low word is 0
		{1, ^uint64(0), 0, true},  // low word 2^64-1 = n
	} {
		if v, ok := Bounded(c.x, c.n); v != c.v || ok != c.ok {
			t.Fatalf("Bounded(%#x, %#x) = (%d, %v), want (%d, %v)", c.x, c.n, v, ok, c.v, c.ok)
		}
	}
}
