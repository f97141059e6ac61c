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
func Verilog(m *bm.Machine, res *Result) (string, error) {
	c, err := Concretize(m)
	if err != nil {
		return "", err
	}
	vars, _ := variableOrder(c, res.StateBits, res.OutputFeedback)
	var b strings.Builder
	san := verilogIdent.Replace

	inputs := append([]string{}, c.Inputs...)
	outputs := append([]string{}, c.Outputs...)
	sort.Strings(outputs)

	fmt.Fprintf(&b, "// Synthesized from burst-mode controller %s\n", m.Name)
	fmt.Fprintf(&b, "// %d states, %d state bits%s, %d products, %d literals\n",
		res.States, res.StateBits, map[bool]string{true: " (one-hot)", false: ""}[res.OneHot],
		res.Products, res.Literals)
	fmt.Fprintf(&b, "module %s (\n", san(m.Name))
	for _, in := range inputs {
		fmt.Fprintf(&b, "  input  wire %s,\n", san(in))
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
	init := res.Encoding[c.Init]
	for bit := 0; bit < res.StateBits; bit++ {
		fmt.Fprintf(&b, "  wire Y%d;        // state bit (reset %d)\n", bit, (init>>uint(bit))&1)
	}
	b.WriteString("\n")

	expr := func(cv logic.Cover) string {
		if cv.Len() == 0 {
			return "1'b0"
		}
		var terms []string
		for _, cube := range cv.Cubes {
			var lits []string
			for i := 0; i < cube.N(); i++ {
				switch cube.Get(i) {
				case logic.One:
					lits = append(lits, san(vars[i]))
				case logic.Zero:
					lits = append(lits, "~"+san(vars[i]))
				}
			}
			if len(lits) == 0 {
				return "1'b1"
			}
			terms = append(terms, strings.Join(lits, " & "))
		}
		return strings.Join(terms, "\n             | ")
	}

	fns := append([]FuncResult{}, res.Functions...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	for _, f := range fns {
		tag := ""
		if !f.HazardFree {
			tag = "  // WARNING: not hazard-free"
		}
		fmt.Fprintf(&b, "  assign %s =%s\n               %s;\n\n", san(f.Name), tag, expr(f.Cover))
	}
	b.WriteString("endmodule\n")
	return b.String(), nil
}
