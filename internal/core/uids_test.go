package core

import (
	"slices"
	"testing"

	"mobiletel/internal/xrand"
)

// mapDistinct is the UniqueUIDs of earlier versions, kept as the reference
// for fillDistinct: the same shortfall-sized batches from draw, into a
// separate buffer, with the seen values in a map.
func mapDistinct(n int, draw func([]uint64)) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	buf := make([]uint64, n)
	for len(out) < n {
		batch := buf[:n-len(out)]
		draw(batch)
		for _, u := range batch {
			if u != 0 && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// scripted returns a draw source that plays script in order and records
// every batch size asked of it.
func scripted(script []uint64, sizes *[]int) func([]uint64) {
	return func(batch []uint64) {
		*sizes = append(*sizes, len(batch))
		n := copy(batch, script)
		script = script[n:]
	}
}

// TestFillDistinctMatchesMapScripted drives fillDistinct with scripted
// sources full of zeros and repeats, inside a batch and of values accepted
// in an earlier batch, and with values whose top bits collide or land in
// the set's last slot (so probes wrap). The values kept and the batch
// sizes drawn must match the map version's.
func TestFillDistinctMatchesMapScripted(t *testing.T) {
	top := ^uint64(0)
	scripts := [][]uint64{
		{5, 0, 5, 9, 0, 7, 9, 0, 11, 0, 0, 13, 13, 5, 2},
		{0, 0, 0, 0, 1, 1, 1, 1, 2, 1, 3, 2, 4, 3, 5, 4, 6},
		{top, top - 1, top, 1, top - 1, 2, top - 2, 0, top - 3, 3, top, 4},
	}
	for i, script := range scripts {
		for n := 1; n <= 6; n++ {
			var gotSizes, wantSizes []int
			got := make([]uint64, n)
			fillDistinct(got, scripted(script, &gotSizes))
			want := mapDistinct(n, scripted(script, &wantSizes))
			if !slices.Equal(got, want) || !slices.Equal(gotSizes, wantSizes) {
				t.Fatalf("script %d n=%d: kept %v in batches %v, map version %v in %v", i, n, got, gotSizes, want, wantSizes)
			}
		}
	}
}

// TestFillDistinctMatchesMapRandom draws from small alphabets, so most
// values repeat, at every n up to 40.
func TestFillDistinctMatchesMapRandom(t *testing.T) {
	rng := xrand.New(58)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		alphabet := make([]uint64, n+rng.Intn(2*n))
		for k := range alphabet {
			switch rng.Intn(4) {
			case 0:
				alphabet[k] = 0
			case 1:
				alphabet[k] = uint64(rng.Intn(8))
			default:
				alphabet[k] = rng.Uint64() | 1
			}
		}
		alphabet = append(alphabet, rng.Uint64()|1) // some nonzero value
		seed := rng.Uint64()
		draw := func() func([]uint64) {
			r := xrand.New(seed)
			return func(batch []uint64) {
				for k := range batch {
					batch[k] = alphabet[r.Intn(len(alphabet))]
				}
			}
		}
		distinct := map[uint64]bool{}
		for _, u := range alphabet {
			if u != 0 {
				distinct[u] = true
			}
		}
		n = min(n, len(distinct))
		got := make([]uint64, n)
		fillDistinct(got, draw())
		if want := mapDistinct(n, draw()); !slices.Equal(got, want) {
			t.Fatalf("trial %d n=%d: %v, map version %v", trial, n, got, want)
		}
	}
}

// TestUniqueUIDsMatchesMap pins UniqueUIDs to the map version on real
// streams.
func TestUniqueUIDsMatchesMap(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 256, 650, 100000} {
		for seed := uint64(0); seed < 5; seed++ {
			want := mapDistinct(n, xrand.New(seed).FillUint64s)
			if got := UniqueUIDs(n, seed); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: UniqueUIDs differs from the map version", n, seed)
			}
		}
	}
}

func BenchmarkUniqueUIDs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = UniqueUIDs(1<<20, uint64(i))
	}
}
