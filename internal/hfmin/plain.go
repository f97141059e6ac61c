package hfmin

import "context"

// MinimizePlain computes a two-level cover of the specification ignoring
// hazards: it covers the ON-set with ordinary prime implicants, minimizing
// product count first and literals second. It exists as the ablation
// baseline for the hazard-free machinery (how much do required cubes and
// privileged-cube shrinking cost?), and as synthesis' fallback for an
// output with no hazard-free cover.
//
// Each ON cube must lie inside a single product, not only inside the
// cover's union: for burst-mode specs the ON cubes are exactly the
// required cubes, so this is the hazard-free problem without the
// dynamic-hazard constraints.
func MinimizePlain(spec Spec) (Result, error) {
	return minimize(context.Background(), spec, true)
}
