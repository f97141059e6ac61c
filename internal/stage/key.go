package stage

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sort"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/transform"
)

// Salt versions the stage key space. Bump it whenever any stage's
// observable behaviour changes (transform semantics, extraction rules,
// LT rewrites, payload formats), so cached stage results from older
// pipelines are recomputed rather than replayed. The covering solvers
// version themselves through logic.SolverVersion, folded into the synth
// stage key separately.
const Salt = "stage-v1"

// stageKey hashes a stage kind plus its length-prefixed canonical input
// parts into a content key. The length prefixes keep distinct part
// splits from colliding ("ab","c" vs "a","bc").
func stageKey(kind string, parts ...[]byte) [sha256.Size]byte {
	h := sha256.New()
	writeString(h, Salt)
	writeString(h, kind)
	for _, p := range parts {
		writeU64(h, uint64(len(p)))
		h.Write(p)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

func writeU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func writeString(h hash.Hash, s string) {
	writeU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func writeBool(h hash.Hash, b bool) {
	if b {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
}

func writeFloat(h hash.Hash, f float64) {
	writeU64(h, math.Float64bits(f))
}

// hashGraph fingerprints a CDFG structurally: every name, node,
// statement, arc and block field that any pipeline stage can observe, in
// a canonical order. It deliberately does not round-trip through
// codec.EncodeGraph — transformed graphs (post-GT) may not satisfy the
// submission-side validation rules, but they still need fingerprints for
// the extract stage key.
func hashGraph(g *cdfg.Graph) []byte {
	h := sha256.New()
	writeString(h, g.Name)
	writeU64(h, uint64(len(g.FUs)))
	for _, fu := range g.FUs {
		writeString(h, fu)
	}
	writeU64(h, uint64(g.Start))
	writeU64(h, uint64(g.End))

	consts := make([]string, 0, len(g.Consts))
	for c, ok := range g.Consts {
		if ok {
			consts = append(consts, c)
		}
	}
	sort.Strings(consts)
	writeU64(h, uint64(len(consts)))
	for _, c := range consts {
		writeString(h, c)
	}

	inits := make([]string, 0, len(g.Init))
	for k := range g.Init {
		inits = append(inits, k)
	}
	sort.Strings(inits)
	writeU64(h, uint64(len(inits)))
	for _, k := range inits {
		writeString(h, k)
		writeFloat(h, g.Init[k])
	}

	writeU64(h, uint64(len(g.Blocks)))
	for _, b := range g.Blocks {
		writeU64(h, uint64(b.ID))
		writeU64(h, uint64(b.Kind))
		writeU64(h, uint64(b.Root))
		writeU64(h, uint64(b.End))
		writeU64(h, uint64(int64(b.Parent)))
		writeU64(h, uint64(len(b.Nodes)))
		for _, id := range b.Nodes {
			writeU64(h, uint64(id))
		}
	}

	nodes := g.Nodes() // sorted by ID
	writeU64(h, uint64(len(nodes)))
	for _, n := range nodes {
		writeU64(h, uint64(n.ID))
		writeU64(h, uint64(n.Kind))
		writeString(h, n.FU)
		writeString(h, n.Cond)
		writeU64(h, uint64(int64(n.Block)))
		writeU64(h, uint64(int64(n.Order)))
		writeU64(h, uint64(len(n.Stmts)))
		for _, s := range n.Stmts {
			writeString(h, s.Dst)
			writeString(h, string(s.Op))
			writeString(h, s.Src1)
			writeString(h, s.Src2)
		}
	}

	arcs := g.Arcs() // sorted by ID
	writeU64(h, uint64(len(arcs)))
	for _, a := range arcs {
		writeU64(h, uint64(a.ID))
		writeU64(h, uint64(a.From))
		writeU64(h, uint64(a.To))
		writeU64(h, uint64(a.Kind))
		writeU64(h, uint64(a.Group))
		writeU64(h, uint64(a.Branch))
		writeString(h, a.Note)
	}
	return h.Sum(nil)
}

// optionsKey canonicalizes everything the global-transform stage's
// outcome depends on beyond the graph itself: the level and the resolved
// transform options (timing model, unroll depth, skip toggles, explicit
// GT5 script). opt must already be Normalized, and the resolved
// core.GTOptions form is hashed — not the raw Transform field — so the
// defaulted and explicit spellings of one configuration share keys.
func optionsKey(opt core.Options) []byte {
	h := sha256.New()
	writeU64(h, uint64(opt.Level))
	topt := core.GTOptions(opt)
	hashTransformOptions(h, topt)
	return h.Sum(nil)
}

func hashTransformOptions(h hash.Hash, topt transform.Options) {
	fus := make([]string, 0, len(topt.Timing.FUOp))
	for fu := range topt.Timing.FUOp {
		fus = append(fus, fu)
	}
	sort.Strings(fus)
	writeU64(h, uint64(len(fus)))
	for _, fu := range fus {
		iv := topt.Timing.FUOp[fu]
		writeString(h, fu)
		writeFloat(h, iv.Min)
		writeFloat(h, iv.Max)
	}
	writeFloat(h, topt.Timing.DefaultOp.Min)
	writeFloat(h, topt.Timing.DefaultOp.Max)
	writeFloat(h, topt.Timing.Wire.Min)
	writeFloat(h, topt.Timing.Wire.Max)
	writeU64(h, uint64(int64(topt.Unroll)))
	writeBool(h, topt.SkipGT1)
	writeBool(h, topt.SkipGT2)
	writeBool(h, topt.SkipGT3)
	writeBool(h, topt.SkipGT4)
	writeBool(h, topt.SkipGT5)
	writeBool(h, topt.GT5 != nil)
	if topt.GT5 != nil {
		writeU64(h, uint64(len(topt.GT5.Merges)))
		for _, m := range topt.GT5.Merges {
			writeU64(h, uint64(int64(m)))
		}
		writeU64(h, uint64(int64(topt.GT5.Reduces)))
	}
}

// u64bytes renders one integer as a key part.
func u64bytes(v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return buf[:]
}
