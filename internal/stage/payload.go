package stage

import (
	"bytes"
	"encoding/json"

	"repro/internal/bm"
	"repro/internal/local"
	"repro/internal/memo"
	"repro/internal/synth"
)

// The serializable stage payloads. The LT stage caches the locally
// optimized machine plus its report; the synth stage caches the
// gate-level result (through internal/synth's codec). Both are wrapped
// by memo.Store in the salted blob envelope; decode failures are misses.
// The GT and extract stages hold live graph/plan pointers and stay
// memory-only (nil codec).

// ltResult is the per-controller local-transform stage output: the
// machine, its report and the machine's canonical bytes, which key the
// synth stage after it.
type ltResult struct {
	M      *bm.Machine
	Report *local.Report
	mb     []byte
}

// newLTResult pairs m and rep with m's canonical bytes.
func newLTResult(m *bm.Machine, rep *local.Report) (*ltResult, error) {
	mb, err := bm.EncodeMachine(m)
	if err != nil {
		return nil, err
	}
	return &ltResult{M: m, Report: rep, mb: mb}, nil
}

// ltDoc is ltResult's serialized form. The machine is embedded as its
// own canonical document (bm.EncodeMachine), the report fields inline.
type ltDoc struct {
	Machine     json.RawMessage     `json:"machine"`
	Name        string              `json:"name"`
	Moves       []string            `json:"moves,omitempty"`
	Assumptions []string            `json:"assumptions,omitempty"`
	Shared      map[string][]string `json:"shared,omitempty"`
}

// ltCodec serializes ltResult for the disk tier.
type ltCodec struct{}

func (ltCodec) Encode(v any) ([]byte, bool) {
	lt, ok := v.(*ltResult)
	if !ok {
		return nil, false
	}
	doc := ltDoc{
		Machine:     lt.mb,
		Name:        lt.Report.Machine,
		Moves:       lt.Report.Moves,
		Assumptions: lt.Report.Assumptions,
		Shared:      lt.Report.SharedWires,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (ltCodec) Decode(data []byte) (any, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc ltDoc
	if dec.Decode(&doc) != nil || dec.More() {
		return nil, false
	}
	m, err := bm.DecodeMachine(doc.Machine)
	if err != nil {
		return nil, false
	}
	rep := &local.Report{
		Machine:     doc.Name,
		Moves:       doc.Moves,
		Assumptions: doc.Assumptions,
		SharedWires: doc.Shared,
	}
	// OptimizeWith always produces a non-nil SharedWires map; a decoded
	// report must be indistinguishable from a computed one.
	if rep.SharedWires == nil {
		rep.SharedWires = map[string][]string{}
	}
	// The machine is encoded again rather than keyed by the payload's
	// bytes, which an older or foreign writer may have laid out
	// differently.
	lt, err := newLTResult(m, rep)
	if err != nil {
		return nil, false
	}
	return lt, true
}

// synthCodec serializes *synth.Result for the disk tier.
type synthCodec struct{}

func (synthCodec) Encode(v any) ([]byte, bool) {
	r, ok := v.(*synth.Result)
	if !ok {
		return nil, false
	}
	data, err := synth.EncodeResult(r)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (synthCodec) Decode(data []byte) (any, bool) {
	r, err := synth.DecodeResult(data)
	if err != nil {
		return nil, false
	}
	return r, true
}

// Both codecs must satisfy the store's interface.
var (
	_ memo.BlobCodec = ltCodec{}
	_ memo.BlobCodec = synthCodec{}
)
