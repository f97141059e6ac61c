package logic

import "math/bits"

// bitset is a fixed-width bit vector used by the covering search to
// represent row and column sets. All operations are allocation-free; the
// search pools and reuses bitsets across branch-and-bound nodes.
type bitset []uint64

func bitsetWords(n int) int { return (n + 63) / 64 }

func newBitset(n int) bitset { return make(bitset, bitsetWords(n)) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) isEmpty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// subsetOf reports whether b ⊆ c.
func (b bitset) subsetOf(c bitset) bool {
	for i, w := range b {
		if w&^c[i] != 0 {
			return false
		}
	}
	return true
}

// andNot removes every bit of c from b in place.
func (b bitset) andNot(c bitset) {
	for i := range b {
		b[i] &^= c[i]
	}
}

// and intersects b with c in place.
func (b bitset) and(c bitset) {
	for i := range b {
		b[i] &= c[i]
	}
}

func (b bitset) copyFrom(c bitset) { copy(b, c) }

func (b bitset) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if n&63 != 0 {
		b[len(b)-1] = (uint64(1) << uint(n&63)) - 1
	}
}

// forEach calls fn for every set bit in ascending order.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
}

// intersectionCount returns |b ∩ c| without materializing the result.
func (b bitset) intersectionCount(c bitset) int {
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & c[i])
	}
	return n
}
