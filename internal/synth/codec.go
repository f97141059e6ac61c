// Serialization of synthesis results, the disk payload format the
// incremental stage engine (internal/stage) caches per-controller synth
// outcomes in. Living in this package keeps FuncResult's unexported
// exactness bit round-trippable without widening the public API.
package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/logic"
)

// resultDoc is the serialized Result shape. Encoding map keys are decimal
// state IDs; encoding/json renders map keys sorted, so the bytes are
// deterministic.
type resultDoc struct {
	Controller     string            `json:"controller"`
	StateBits      int               `json:"state_bits"`
	States         int               `json:"states"`
	OneHot         bool              `json:"onehot"`
	Products       int               `json:"products"`
	Literals       int               `json:"literals"`
	Exact          bool              `json:"exact"`
	NonHazardFree  int               `json:"non_hazard_free"`
	OutputFeedback bool              `json:"output_feedback"`
	Encoding       map[string]uint64 `json:"encoding,omitempty"`
	Functions      []funcDoc         `json:"functions"`
}

type funcDoc struct {
	Name       string    `json:"name"`
	Products   int       `json:"products"`
	Literals   int       `json:"literals"`
	HazardFree bool      `json:"hazard_free"`
	Exact      bool      `json:"exact"`
	N          int       `json:"n"`
	Cover      []cubeDoc `json:"cover"`
}

// cubeDoc is one product term in logic.Cube's raw positional-mask form.
type cubeDoc struct {
	Z uint64 `json:"z"`
	O uint64 `json:"o"`
}

// EncodeResult serializes r deterministically; identical results produce
// identical bytes.
func EncodeResult(r *Result) ([]byte, error) {
	d := resultDoc{
		Controller:     r.Controller,
		StateBits:      r.StateBits,
		States:         r.States,
		OneHot:         r.OneHot,
		Products:       r.Products,
		Literals:       r.Literals,
		Exact:          r.Exact,
		NonHazardFree:  r.NonHazardFree,
		OutputFeedback: r.OutputFeedback,
		Functions:      make([]funcDoc, 0, len(r.Functions)),
	}
	if len(r.Encoding) > 0 {
		d.Encoding = make(map[string]uint64, len(r.Encoding))
		for id, code := range r.Encoding {
			d.Encoding[strconv.Itoa(id)] = code
		}
	}
	for _, f := range r.Functions {
		fd := funcDoc{
			Name:       f.Name,
			Products:   f.Products,
			Literals:   f.Literals,
			HazardFree: f.HazardFree,
			Exact:      f.exact,
			N:          f.Cover.N,
			Cover:      make([]cubeDoc, 0, len(f.Cover.Cubes)),
		}
		for _, c := range f.Cover.Cubes {
			z, o := c.Raw()
			fd.Cover = append(fd.Cover, cubeDoc{Z: z, O: o})
		}
		d.Functions = append(d.Functions, fd)
	}
	return json.Marshal(d)
}

// DecodeResult is the strict inverse of EncodeResult. Unknown fields,
// trailing data, malformed state IDs and out-of-range cube masks are
// errors — a cache record that fails here is a miss, never a result.
func DecodeResult(data []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d resultDoc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("synth: decode result: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("synth: decode result: trailing data after document")
	}
	r := &Result{
		Controller:     d.Controller,
		StateBits:      d.StateBits,
		States:         d.States,
		OneHot:         d.OneHot,
		Products:       d.Products,
		Literals:       d.Literals,
		Exact:          d.Exact,
		NonHazardFree:  d.NonHazardFree,
		OutputFeedback: d.OutputFeedback,
	}
	if len(d.Encoding) > 0 {
		r.Encoding = make(map[int]uint64, len(d.Encoding))
		for key, code := range d.Encoding {
			id, err := strconv.Atoi(key)
			if err != nil {
				return nil, fmt.Errorf("synth: decode result: encoding key %q: %w", key, err)
			}
			r.Encoding[id] = code
		}
	}
	for i, fd := range d.Functions {
		f := FuncResult{
			Name:       fd.Name,
			Products:   fd.Products,
			Literals:   fd.Literals,
			HazardFree: fd.HazardFree,
			exact:      fd.Exact,
			Cover:      logic.Cover{N: fd.N},
		}
		for j, cd := range fd.Cover {
			c, err := logic.RawCube(cd.Z, cd.O, fd.N)
			if err != nil {
				return nil, fmt.Errorf("synth: decode result: functions[%d].cover[%d]: %w", i, j, err)
			}
			f.Cover.Cubes = append(f.Cover.Cubes, c)
		}
		r.Functions = append(r.Functions, f)
	}
	return r, nil
}
