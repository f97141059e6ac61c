package codec

import (
	"bytes"
	"encoding/json"
	"sort"

	"repro/internal/bm"
	"repro/internal/core"
	"repro/internal/synth"
)

// SynthesisDoc is the JSON form of a completed synthesis: the metrics
// summary (the paper's Figure 12/13 numbers), one entry per functional
// unit with its extracted-and-optimized AFSM, and — when gate-level
// results are attached — the per-controller product/literal counts and
// structural Verilog netlist.
type SynthesisDoc struct {
	Version          int             `json:"version"`
	Kind             string          `json:"kind"`
	Name             string          `json:"name"`
	Level            string          `json:"level"`
	Channels         int             `json:"channels"`
	MultiwayChannels int             `json:"multiway_channels"`
	Controllers      []ControllerDoc `json:"controllers"`
	TotalProducts    int             `json:"total_products,omitempty"`
	TotalLiterals    int             `json:"total_literals,omitempty"`
}

// ControllerDoc is one functional unit's synthesized controller.
type ControllerDoc struct {
	FU          string  `json:"fu"`
	States      int     `json:"states"`
	Transitions int     `json:"transitions"`
	AFSM        AFSMDoc `json:"afsm"`
	// Gate-level fields, present when synthesis results were attached.
	StateBits     int    `json:"state_bits,omitempty"`
	OneHot        bool   `json:"one_hot,omitempty"`
	Products      int    `json:"products,omitempty"`
	Literals      int    `json:"literals,omitempty"`
	NonHazardFree int    `json:"non_hazard_free,omitempty"`
	Netlist       string `json:"netlist,omitempty"`
}

// AFSMDoc is an extended burst-mode machine.
type AFSMDoc struct {
	Inputs      []string   `json:"inputs,omitempty"`
	Outputs     []string   `json:"outputs,omitempty"`
	Levels      []string   `json:"levels,omitempty"`
	Init        int        `json:"init"`
	InitialHigh []string   `json:"initial_high,omitempty"`
	Transitions []TransDoc `json:"transitions"`
}

// TransDoc is one AFSM transition: when the in-burst completes under the
// sampled conditions, move from → to emitting the out-burst.
type TransDoc struct {
	From  int        `json:"from"`
	To    int        `json:"to"`
	In    []EventDoc `json:"in,omitempty"`
	Cond  []CondDoc  `json:"cond,omitempty"`
	Out   []EventDoc `json:"out,omitempty"`
	Free  []string   `json:"free,omitempty"`
	Label string     `json:"label,omitempty"`
}

// EventDoc is one signal edge ("+" rise, "-" fall, "~" toggle).
type EventDoc struct {
	Signal string `json:"sig"`
	Edge   string `json:"edge"`
}

// CondDoc is one sampled level condition.
type CondDoc struct {
	Signal string `json:"sig"`
	Value  bool   `json:"value"`
}

// EncodeSynthesis renders a synthesis outcome as an interchange document.
// results may be nil (state-machine-level job: AFSMs and channel metrics
// only); when present, each controller gains its Figure 13 numbers and a
// structural Verilog netlist, rendered deterministically so two runs of
// the same input are byte-identical ("bit-identical netlists" in the
// service's smoke test).
func EncodeSynthesis(s *core.Synthesis, results map[string]*synth.Result) ([]byte, error) {
	return marshalIndent(synthesisDoc(s, results))
}

// synthesisDoc builds the document EncodeSynthesis renders.
func synthesisDoc(s *core.Synthesis, results map[string]*synth.Result) SynthesisDoc {
	doc := SynthesisDoc{
		Version:          Version,
		Kind:             KindSynthesis,
		Name:             s.Graph.Name,
		Level:            s.Level.String(),
		Channels:         s.Channels(),
		MultiwayChannels: s.MultiwayChannels(),
	}
	for _, fu := range s.FUs() {
		m := s.Machines[fu]
		cd := ControllerDoc{
			FU:          fu,
			States:      m.NumStates(),
			Transitions: m.NumTransitions(),
			AFSM:        encodeAFSM(m),
		}
		if r := results[fu]; r != nil {
			cd.StateBits = r.StateBits
			cd.OneHot = r.OneHot
			cd.Products = r.Products
			cd.Literals = r.Literals
			cd.NonHazardFree = r.NonHazardFree
			cd.Netlist = synth.Verilog(m, r)
			doc.TotalProducts += r.Products
			doc.TotalLiterals += r.Literals
		}
		doc.Controllers = append(doc.Controllers, cd)
	}
	return doc
}

// DecodeSynthesis parses a synthesis document (the client side of the
// job-result API). Validation is shallow — the document is a report, not
// an input to further computation.
func DecodeSynthesis(data []byte) (*SynthesisDoc, error) {
	var doc SynthesisDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, errAt("", "invalid JSON: %v", err)
	}
	if doc.Version != Version {
		return nil, errAt("version", "unsupported version %d (want %d)", doc.Version, Version)
	}
	if doc.Kind != KindSynthesis {
		return nil, errAt("kind", "unexpected kind %q (want %q)", doc.Kind, KindSynthesis)
	}
	return &doc, nil
}

// encodeAFSM renders a burst-mode machine with sorted signal lists and
// transitions in specification order.
func encodeAFSM(m *bm.Machine) AFSMDoc {
	doc := AFSMDoc{
		Inputs:      sortedCopy(m.Inputs),
		Outputs:     sortedCopy(m.Outputs),
		Levels:      sortedCopy(m.Levels),
		Init:        int(m.Init),
		InitialHigh: sortedCopy(m.InitialHigh),
	}
	for _, t := range m.Transitions {
		td := TransDoc{From: int(t.From), To: int(t.To), Label: t.Label}
		for _, e := range t.In {
			td.In = append(td.In, EventDoc{Signal: e.Signal, Edge: e.Edge.String()})
		}
		for _, c := range t.Cond {
			td.Cond = append(td.Cond, CondDoc{Signal: c.Signal, Value: c.Value})
		}
		for _, e := range t.Out {
			td.Out = append(td.Out, EventDoc{Signal: e.Signal, Edge: e.Edge.String()})
		}
		td.Free = append(td.Free, t.Free...)
		doc.Transitions = append(doc.Transitions, td)
	}
	return doc
}

func sortedCopy(s []string) []string {
	out := append([]string{}, s...)
	sort.Strings(out)
	return out
}
