package logic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortRowsMatchesSortFunc requires sortRows to leave every input in
// the permutation slices.SortFunc leaves it in, element for element. Each
// row's mask is its input position, so equal-size rows are told apart:
// their order sets the dhf-prime order. The inputs are random rows of
// sizes 1–8 and 1–64 at every length up to 300, and all-equal,
// ascending, descending, organ-pipe, sawtooth and two-valued rows at
// lengths on both sides of the ninther's threshold (50), where the
// partitions that go wrong run breakPatterns and a reversed run the
// decreasing hint.
func TestSortRowsMatchesSortFunc(t *testing.T) {
	cmp := func(a, b sizedRow) int { return a.size - b.size }
	check := func(name string, sizes []int) {
		t.Helper()
		want := make([]sizedRow, len(sizes))
		for i, s := range sizes {
			want[i] = sizedRow{mask: uint64(i), size: s}
		}
		got := slices.Clone(want)
		slices.SortFunc(want, cmp)
		sortRows(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s (%d rows): sortRows gives\n%v\nslices.SortFunc gives\n%v", name, len(sizes), got, want)
		}
	}
	r := rand.New(rand.NewSource(31))
	for _, maxSize := range []int{8, 64} {
		for n := 0; n <= 300; n++ {
			for rep := 0; rep < 3; rep++ {
				sizes := make([]int, n)
				for i := range sizes {
					sizes[i] = 1 + r.Intn(maxSize)
				}
				check(fmt.Sprintf("random sizes 1-%d", maxSize), sizes)
			}
		}
	}
	patterns := []struct {
		name string
		size func(i, n int) int
	}{
		{"all equal", func(i, n int) int { return 3 }},
		{"ascending", func(i, n int) int { return 1 + i }},
		{"descending", func(i, n int) int { return n - i }},
		{"organ pipe", func(i, n int) int { return 1 + min(i, n-1-i) }},
		{"sawtooth", func(i, n int) int { return 1 + i%7 }},
		{"two values", func(i, n int) int { return 1 + i%2*7 }},
		{"descending runs", func(i, n int) int { return 1 + (n-i)%16 }},
	}
	for _, p := range patterns {
		for _, n := range []int{1, 2, 7, 8, 12, 13, 49, 50, 51, 64, 100, 128, 255, 256, 300, 1000} {
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = p.size(i, n)
			}
			check(p.name, sizes)
		}
	}
}
