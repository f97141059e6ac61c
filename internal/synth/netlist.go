package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bm"
	"repro/internal/logic"
)

// verilogIdent maps signal names onto Verilog identifiers. A Replacer is
// safe for concurrent use, so one serves every rendering.
var verilogIdent = strings.NewReplacer("-", "_", "+", "p", "*", "m", "<", "lt", ">", "gt", "=", "eq", ";", "_", " ", "_", ":", "_")

// Verilog renders the synthesized controller as a structural Verilog
// module: two-level sum-of-products per output and next-state function,
// with the state variables fed back through (zero-delay) continuous
// assignments. Signal names are sanitized to Verilog identifiers.
// The signal lists and the initial state come from m directly (see
// signals and initState).
//
// res must have been synthesized from m. The first call renders the
// netlist and res keeps it, so later calls, concurrent ones included,
// return that string without rendering. The pairing makes this safe for
// results the stage engine shares: their synth key holds m's canonical
// bytes, and the netlist reads only m's name and signal lists. The memo
// sits on the result, not on the machine, because the local transforms
// rewrite machines in place.
func Verilog(m *bm.Machine, res *Result) string {
	res.netlist.once.Do(func() { res.netlist.text = render(m, res) })
	return res.netlist.text
}

// render is Verilog without the memo.
func render(m *bm.Machine, res *Result) string {
	inputs, outputs := signals(m)
	vars := variables(inputs, outputs, res.StateBits, res.OutputFeedback)
	san := verilogIdent.Replace
	// Each variable's literals, sanitized once per netlist.
	pos, neg := make([]string, len(vars)), make([]string, len(vars))
	for i, v := range vars {
		pos[i] = san(v)
		neg[i] = "~" + pos[i]
	}
	sort.Strings(outputs)

	var b strings.Builder
	oneHot := ""
	if res.OneHot {
		oneHot = " (one-hot)"
	}
	fmt.Fprintf(&b, "// Synthesized from burst-mode controller %s\n", m.Name)
	fmt.Fprintf(&b, "// %d states, %d state bits%s, %d products, %d literals\n",
		res.States, res.StateBits, oneHot, res.Products, res.Literals)
	fmt.Fprintf(&b, "module %s (\n", san(m.Name))
	for _, in := range pos[:len(inputs)] {
		fmt.Fprintf(&b, "  input  wire %s,\n", in)
	}
	for i, out := range outputs {
		comma := ","
		if i == len(outputs)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "  output wire %s%s\n", san(out), comma)
	}
	b.WriteString(");\n\n")

	// State variables: feedback wires with reset values per the encoding.
	init := res.Encoding[initState]
	for bit := 0; bit < res.StateBits; bit++ {
		fmt.Fprintf(&b, "  wire Y%d;        // state bit (reset %d)\n", bit, (init>>uint(bit))&1)
	}
	b.WriteString("\n")

	// expr writes a cover as a sum of products: constant 0 when empty,
	// constant 1 when it holds the full cube.
	expr := func(cv logic.Cover) {
		if cv.Len() == 0 {
			b.WriteString("1'b0")
			return
		}
		for _, cube := range cv.Cubes {
			if cube.Literals() == 0 {
				b.WriteString("1'b1")
				return
			}
		}
		for j, cube := range cv.Cubes {
			if j > 0 {
				b.WriteString("\n             | ")
			}
			sep := ""
			for i := 0; i < cube.N(); i++ {
				lit := pos[i]
				switch cube.Get(i) {
				case logic.One:
				case logic.Zero:
					lit = neg[i]
				default:
					continue
				}
				b.WriteString(sep)
				b.WriteString(lit)
				sep = " & "
			}
		}
	}

	fns := append([]FuncResult{}, res.Functions...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	for _, f := range fns {
		tag := ""
		if !f.HazardFree {
			tag = "  // WARNING: not hazard-free"
		}
		fmt.Fprintf(&b, "  assign %s =%s\n               ", san(f.Name), tag)
		expr(f.Cover)
		b.WriteString(";\n\n")
	}
	b.WriteString("endmodule\n")
	return b.String()
}
