// Package logic provides two-level Boolean logic primitives: cubes, covers,
// cube expansion and prime generation. It is the substrate for the
// hazard-free minimizer in internal/hfmin and the burst-mode synthesizer in
// internal/synth.
//
// A cube over n variables (n <= 64) assigns each variable one of the values
// 0, 1 or '-' (don't care). Cubes are represented positionally: bit i of the
// zero mask means "variable i may be 0", bit i of the one mask means
// "variable i may be 1". A variable with both bits set is a don't care; a
// variable with neither bit set makes the cube empty.
package logic

import (
	"cmp"
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the maximum number of variables supported by a Cube.
const MaxVars = 64

// Val is the value of a single variable position in a cube.
type Val uint8

// Variable values within a cube.
const (
	Zero Val = iota // variable must be 0
	One             // variable must be 1
	Dash            // variable is unconstrained
	None            // contradictory position (cube is empty)
)

func (v Val) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case Dash:
		return "-"
	default:
		return "!"
	}
}

// Cube is a product term over up to 64 variables. The zero value is the
// empty cube over zero variables; use FullCube or ParseCube to construct
// useful cubes.
type Cube struct {
	zero uint64 // bit i set: variable i may take value 0
	one  uint64 // bit i set: variable i may take value 1
	n    uint8  // number of variables
}

// FullCube returns the universal cube (all variables don't care) over n
// variables.
func FullCube(n int) Cube {
	checkN(n)
	m := maskN(n)
	return Cube{zero: m, one: m, n: uint8(n)}
}

// EmptyCube returns an empty (contradictory) cube over n variables.
func EmptyCube(n int) Cube {
	checkN(n)
	return Cube{n: uint8(n)}
}

func checkN(n int) {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("logic: variable count %d out of range [0,%d]", n, MaxVars))
	}
}

func maskN(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// ParseCube parses a positional cube string such as "01-0". Characters other
// than '0', '1' and '-' are rejected.
func ParseCube(s string) (Cube, error) {
	if len(s) > MaxVars {
		return Cube{}, fmt.Errorf("logic: cube %q exceeds %d variables", s, MaxVars)
	}
	c := FullCube(len(s))
	for i, r := range s {
		switch r {
		case '0':
			c = c.With(i, Zero)
		case '1':
			c = c.With(i, One)
		case '-':
			// already dash
		default:
			return Cube{}, fmt.Errorf("logic: invalid character %q in cube %q", r, s)
		}
	}
	return c, nil
}

// MustCube is ParseCube that panics on error; intended for tests and
// literals.
func MustCube(s string) Cube {
	c, err := ParseCube(s)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of variables of the cube.
func (c Cube) N() int { return int(c.n) }

// Get returns the value of variable i.
func (c Cube) Get(i int) Val {
	c.checkIdx(i)
	z := c.zero >> uint(i) & 1
	o := c.one >> uint(i) & 1
	switch {
	case z == 1 && o == 1:
		return Dash
	case z == 1:
		return Zero
	case o == 1:
		return One
	default:
		return None
	}
}

// With returns a copy of c with variable i set to v.
func (c Cube) With(i int, v Val) Cube {
	c.checkIdx(i)
	bit := uint64(1) << uint(i)
	c.zero &^= bit
	c.one &^= bit
	switch v {
	case Zero:
		c.zero |= bit
	case One:
		c.one |= bit
	case Dash:
		c.zero |= bit
		c.one |= bit
	case None:
		// leave both clear
	}
	return c
}

func (c Cube) checkIdx(i int) {
	if i < 0 || i >= int(c.n) {
		panic(fmt.Sprintf("logic: variable index %d out of range [0,%d)", i, c.n))
	}
}

// IsEmpty reports whether the cube denotes the empty set (some variable has
// no allowed value).
func (c Cube) IsEmpty() bool {
	m := maskN(int(c.n))
	return (c.zero|c.one)&m != m
}

// IsFull reports whether every variable is a don't care.
func (c Cube) IsFull() bool {
	m := maskN(int(c.n))
	return c.zero&m == m && c.one&m == m
}

// IsMinterm reports whether every variable is bound to 0 or 1.
func (c Cube) IsMinterm() bool {
	return !c.IsEmpty() && c.zero&c.one == 0
}

// Literals returns the number of bound variables (literals) of the cube.
func (c Cube) Literals() int {
	m := maskN(int(c.n))
	both := c.zero & c.one & m
	return int(c.n) - popcount(both)
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// Contains reports whether c contains d (d is a subcube of c). An empty d is
// contained in everything of the same arity.
func (c Cube) Contains(d Cube) bool {
	c.checkArity(d)
	if d.IsEmpty() {
		return true
	}
	return d.zero&^c.zero == 0 && d.one&^c.one == 0
}

// ContainsMinterm is Contains specialized for minterms; it has identical
// semantics but documents intent at call sites.
func (c Cube) ContainsMinterm(m Cube) bool { return c.Contains(m) }

func (c Cube) checkArity(d Cube) {
	if c.n != d.n {
		panic(fmt.Sprintf("logic: arity mismatch %d vs %d", c.n, d.n))
	}
}

// Intersect returns the intersection cube of c and d. The result may be
// empty; use IsEmpty to test.
func (c Cube) Intersect(d Cube) Cube {
	c.checkArity(d)
	return Cube{zero: c.zero & d.zero, one: c.one & d.one, n: c.n}
}

// Intersects reports whether c and d have a common point.
func (c Cube) Intersects(d Cube) bool {
	return !c.Intersect(d).IsEmpty()
}

// Supercube returns the smallest cube containing both c and d. Empty
// operands are ignored.
func (c Cube) Supercube(d Cube) Cube {
	c.checkArity(d)
	if c.IsEmpty() {
		return d
	}
	if d.IsEmpty() {
		return c
	}
	return Cube{zero: c.zero | d.zero, one: c.one | d.one, n: c.n}
}

// Distance returns the number of variables on which c and d conflict (one
// requires 0, the other requires 1). Distance 0 means the cubes intersect.
func (c Cube) Distance(d Cube) int {
	c.checkArity(d)
	m := maskN(int(c.n))
	i := Cube{zero: c.zero & d.zero, one: c.one & d.one, n: c.n}
	empty := ^(i.zero | i.one) & m
	return popcount(empty)
}

// Cofactor returns the cofactor of c with respect to cube d (the Shannon
// cofactor generalized to cubes), and reports whether it is non-empty.
// Variables bound in d become don't cares in the result.
func (c Cube) Cofactor(d Cube) (Cube, bool) {
	c.checkArity(d)
	if c.Distance(d) > 0 {
		return EmptyCube(int(c.n)), false
	}
	m := maskN(int(c.n))
	// Variables where d is bound are freed in the cofactor.
	boundD := ^(d.zero & d.one) & m
	res := Cube{
		zero: c.zero | boundD&m,
		one:  c.one | boundD&m,
		n:    c.n,
	}
	// For variables bound in d, the cofactor is over the remaining variables;
	// representing them as dashes is the standard convention.
	return res, true
}

// BoundVars returns a bitmask of the variables bound (to 0 or 1) in c.
func (c Cube) BoundVars() uint64 {
	m := maskN(int(c.n))
	return ^(c.zero & c.one) & m
}

// Free returns a copy of c with variable i set to don't care.
func (c Cube) Free(i int) Cube { return c.With(i, Dash) }

// Size returns the number of minterms in the cube (2^#dashes), or 0 if
// empty.
func (c Cube) Size() uint64 {
	if c.IsEmpty() {
		return 0
	}
	dashes := popcount(c.zero & c.one & maskN(int(c.n)))
	return uint64(1) << uint(dashes)
}

// Equal reports whether c and d denote the same cube. All empty cubes of the
// same arity compare equal.
func (c Cube) Equal(d Cube) bool {
	if c.n != d.n {
		return false
	}
	if c.IsEmpty() && d.IsEmpty() {
		return true
	}
	return c.zero == d.zero && c.one == d.one
}

// String renders the cube positionally, e.g. "01-0".
func (c Cube) String() string {
	var b strings.Builder
	for i := 0; i < int(c.n); i++ {
		b.WriteString(c.Get(i).String())
	}
	return b.String()
}

// Minterms enumerates all minterms of the cube, calling fn for each; it
// stops early if fn returns false. Intended for small cubes (tests,
// validation).
func (c Cube) Minterms(fn func(Cube) bool) {
	if c.IsEmpty() {
		return
	}
	var rec func(cur Cube, i int) bool
	rec = func(cur Cube, i int) bool {
		if i == int(c.n) {
			return fn(cur)
		}
		switch cur.Get(i) {
		case Dash:
			if !rec(cur.With(i, Zero), i+1) {
				return false
			}
			return rec(cur.With(i, One), i+1)
		default:
			return rec(cur, i+1)
		}
	}
	rec(c, 0)
}

// Key returns a comparable key for use in maps; cubes with equal Key are
// Equal, except that distinct empty cubes may have distinct keys (normalize
// with EmptyCube first if needed).
func (c Cube) Key() [2]uint64 { return [2]uint64{c.zero, c.one} }

// Compare orders cubes of one arity by their zero mask, then their one
// mask, and returns -1, 0 or +1. It is the order of the primes
// PrimesContaining and Maximal return, and so of hfmin's dhf-primes and
// covers, and the order of the cubes of hfmin's canonical specs. Cubes
// compare equal exactly when their keys do.
func Compare(a, b Cube) int {
	if c := cmp.Compare(a.zero, b.zero); c != 0 {
		return c
	}
	return cmp.Compare(a.one, b.one)
}

// Raw exposes the positional bit masks of the cube (bit i of zero: variable
// i may be 0; bit i of one: variable i may be 1) for bit-faithful hashing
// and serialization. RawCube is the inverse.
func (c Cube) Raw() (zero, one uint64) { return c.zero, c.one }

// RawCube reconstructs a cube from the representation exposed by Raw. It
// rejects out-of-range variable counts and masks with bits beyond the
// variable count, so corrupt serialized cubes cannot round-trip.
func RawCube(zero, one uint64, n int) (Cube, error) {
	if n < 0 || n > MaxVars {
		return Cube{}, fmt.Errorf("logic: variable count %d out of range [0,%d]", n, MaxVars)
	}
	m := maskN(n)
	if zero&^m != 0 || one&^m != 0 {
		return Cube{}, fmt.Errorf("logic: raw cube masks %#x/%#x exceed %d variables", zero, one, n)
	}
	return Cube{zero: zero, one: one, n: uint8(n)}, nil
}
