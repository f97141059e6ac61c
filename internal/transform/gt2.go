package transform

import "repro/internal/cdfg"

// RemoveDominated applies GT2: it deletes every constraint arc implied by
// the transitive closure of the remaining constraints (§3.2). Removal
// respects structural invariants: the loop repeat arc and the last arc of a
// firing group are never deleted.
func RemoveDominated(g *cdfg.Graph) (*Report, error) {
	rep := &Report{Name: "GT2 remove-dominated"}
	reach := cdfg.NewReach(g) // kept up to date as arcs go
	for {
		changed := false
		for _, a := range g.Arcs() {
			if !removalSafe(g, a) {
				continue
			}
			if reach.Dominated(a) {
				rep.remove(g, a)
				g.RemoveArc(a.ID)
				changed = true
				reach.RemoveArc(a)
			}
		}
		if !changed {
			return rep, nil
		}
	}
}
