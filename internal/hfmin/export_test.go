package hfmin

// Test hooks: transLess for TestCanonicalSorts, and DHFPrimes for the
// external test package hfmin_test, whose registry test imports the
// synthesis pipeline, which imports this package.

// transLess reports whether a sorts before b in Canonical's order.
func transLess(a, b Transition) bool { return transCompare(a, b) < 0 }

// DHFPrimes exposes dhfPrimes.
var DHFPrimes = dhfPrimes
