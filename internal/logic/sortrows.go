// This file adapts the pattern-defeating quicksort of the Go standard
// library's slices package (zsortanyfunc.go, pdqsortCmpFunc and the
// helpers it reaches) to blocking rows ordered by size:
//
//	Copyright 2022 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style license
//	(https://go.dev/LICENSE).
//
// The element type is sizedRow and every cmp(a, b) < 0 is a.size <
// b.size, which is what the comparator minimalHittingSets passed to
// slices.SortFunc returned. Nothing else changes, so sortRows makes the
// same comparisons and swaps as slices.SortFunc and leaves equal-size
// rows in the same permutation, which sets the dhf-prime order; it only
// makes no indirect call per comparison. TestSortRowsMatchesSortFunc
// checks the two element for element.

package logic

import "math/bits"

// sortRows sorts rows by ascending size as slices.SortFunc(rows, func(a,
// b sizedRow) int { return a.size - b.size }) does, to the same
// permutation.
func sortRows(rows []sizedRow) {
	n := len(rows)
	pdqsortRows(rows, 0, n, bits.Len(uint(n)))
}

// insertionSortRows sorts data[a:b] using insertion sort.
func insertionSortRows(data []sizedRow, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && data[j].size < data[j-1].size; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownRows implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownRows(data []sizedRow, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && data[first+child].size < data[first+child+1].size {
			child++
		}
		if !(data[first+root].size < data[first+child].size) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortRows(data []sizedRow, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownRows(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownRows(data, lo, i, first)
	}
}

// pdqsortRows sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortRows(data []sizedRow, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortRows(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortRows(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsRows(data, a, b)
			limit--
		}

		pivot, hint := choosePivotRows(data, a, b)
		if hint == rowsDecreasing {
			reverseRangeRows(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			pivot = (b - 1) - (pivot - a)
			hint = rowsIncreasing
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == rowsIncreasing {
			if partialInsertionSortRows(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].size < data[pivot].size) {
			mid := partitionEqualRows(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionRows(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortRows(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortRows(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partitionRows does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionRows(data []sizedRow, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && data[i].size < data[a].size {
		i++
	}
	for i <= j && !(data[j].size < data[a].size) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && data[i].size < data[a].size {
			i++
		}
		for i <= j && !(data[j].size < data[a].size) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualRows partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualRows(data []sizedRow, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(data[a].size < data[i].size) {
			i++
		}
		for i <= j && data[a].size < data[j].size {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortRows partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortRows(data []sizedRow, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].size < data[i-1].size) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].size < data[j-1].size) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].size < data[j-1].size) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsRows scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsRows(data []sizedRow, a, b int) {
	length := b - a
	if length >= 8 {
		random := rowsXorshift(length)
		modulus := uint(1) << bits.Len(uint(length)) // the next power of two

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// rowsHint is a hint for pdqsortRows when choosing the pivot.
type rowsHint int

const (
	rowsUnknown rowsHint = iota
	rowsIncreasing
	rowsDecreasing
)

// rowsXorshift is the xorshift generator of breakPatternsRows.
// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type rowsXorshift uint64

func (r *rowsXorshift) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

// choosePivotRows chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotRows(data []sizedRow, a, b int) (pivot int, hint rowsHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentRows(data, i, &swaps)
			j = medianAdjacentRows(data, j, &swaps)
			k = medianAdjacentRows(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianRows(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, rowsIncreasing
	case maxSwaps:
		return j, rowsDecreasing
	default:
		return j, rowsUnknown
	}
}

// order2Rows returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Rows(data []sizedRow, a, b int, swaps *int) (int, int) {
	if data[b].size < data[a].size {
		*swaps++
		return b, a
	}
	return a, b
}

// medianRows returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianRows(data []sizedRow, a, b, c int, swaps *int) int {
	a, b = order2Rows(data, a, b, swaps)
	b, c = order2Rows(data, b, c, swaps)
	a, b = order2Rows(data, a, b, swaps)
	return b
}

// medianAdjacentRows finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentRows(data []sizedRow, a int, swaps *int) int {
	return medianRows(data, a-1, a, a+1, swaps)
}

func reverseRangeRows(data []sizedRow, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
