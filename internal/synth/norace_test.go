//go:build !race

package synth_test

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items at random and allocation counts do not repeat.
const raceEnabled = false
