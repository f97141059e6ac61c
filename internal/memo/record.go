package memo

import (
	"encoding/json"
	"errors"

	"repro/internal/hfmin"
	"repro/internal/logic"
)

// An hfmin record is one solved problem — a Result, or an infeasibility
// verdict — in the payload the Store wraps in its envelope for the disk
// tier. Cubes are serialized as their raw positional bit masks
// (logic.Cube.Raw), so a loaded Result is bit-identical to the computed
// one. Records are strictly validated on load — wrong salt,
// malformed JSON, out-of-range masks, arity mismatches — and any defect
// demotes the lookup to a miss; a stored record can cost a recompute but
// never an incorrect result. A record carries its own Salt inside the
// envelope, so a stage payload read as a record, or a record read as a
// stage payload, is a miss.

// record is the cached value of one minimization: its outcome, error
// included. Only clean results and infeasibility verdicts encode; other
// errors indicate malformed specs and stay in memory.
type record struct {
	res hfmin.Result
	err error
}

// recordCodec is the Store codec of hfmin records.
type recordCodec struct{}

func (recordCodec) Encode(v any) ([]byte, bool) {
	r, ok := v.(*record)
	if !ok {
		return nil, false
	}
	return encodeRecord(r.res, r.err)
}

func (recordCodec) Decode(data []byte) (any, bool) {
	res, err, ok := decodeRecord(data)
	if !ok {
		return nil, false
	}
	return &record{res: res, err: err}, true
}

type cubeRec struct {
	Z uint64 `json:"z"`
	O uint64 `json:"o"`
}

type privRec struct {
	Trans cubeRec `json:"trans"`
	Need  cubeRec `json:"need"`
}

type fileRec struct {
	Salt       string    `json:"salt"`
	N          int       `json:"n"`
	Infeasible bool      `json:"infeasible,omitempty"`
	Err        string    `json:"err,omitempty"`
	Exact      bool      `json:"exact,omitempty"`
	Cover      []cubeRec `json:"cover,omitempty"`
	OnSet      []cubeRec `json:"on,omitempty"`
	OffSet     []cubeRec `json:"off,omitempty"`
	Required   []cubeRec `json:"required,omitempty"`
	Privileged []privRec `json:"privileged,omitempty"`
	Primes     []cubeRec `json:"primes,omitempty"`
}

// infeasibleErr reconstructs a persisted hfmin.ErrInfeasible outcome with
// its original message, so errors.Is and error text behave exactly as on
// the compute path.
type infeasibleErr struct{ msg string }

func (e *infeasibleErr) Error() string { return e.msg }
func (e *infeasibleErr) Unwrap() error { return hfmin.ErrInfeasible }

// encodeRecord serializes a solved problem into a record. Only clean
// results and infeasibility verdicts encode — other errors indicate
// malformed specs and are not worth a record (ok is false).
func encodeRecord(res hfmin.Result, err error) (data []byte, ok bool) {
	if err != nil && !errors.Is(err, hfmin.ErrInfeasible) {
		return nil, false
	}
	// Analyze populates the care sets before minimize can fail, so the
	// arity lives on OnSet even when Cover was never built (infeasible
	// outcomes carry the zero Cover, which decodeResult reproduces).
	rec := fileRec{
		Salt:     Salt,
		N:        res.OnSet.N,
		Exact:    res.Exact,
		Cover:    encCubes(res.Cover.Cubes),
		OnSet:    encCubes(res.OnSet.Cubes),
		OffSet:   encCubes(res.OffSet.Cubes),
		Required: encCubes(res.Required),
		Primes:   encCubes(res.Primes),
	}
	for _, pv := range res.Privileged {
		rec.Privileged = append(rec.Privileged, privRec{Trans: encCube(pv.Trans), Need: encCube(pv.Need)})
	}
	if err != nil {
		rec.Infeasible = true
		rec.Err = err.Error()
	}
	data, merr := json.Marshal(rec)
	if merr != nil {
		return nil, false
	}
	return data, true
}

// decodeRecord strictly validates and decodes a record. ok is false on
// any defect — malformed JSON, a foreign salt, out-of-range masks —
// never an error result: a bad record is a miss.
func decodeRecord(data []byte) (res hfmin.Result, resErr error, ok bool) {
	var rec fileRec
	if json.Unmarshal(data, &rec) != nil || rec.Salt != Salt {
		return hfmin.Result{}, nil, false
	}
	res, derr := decodeResult(rec)
	if derr != nil {
		return hfmin.Result{}, nil, false
	}
	if rec.Infeasible {
		return res, &infeasibleErr{msg: rec.Err}, true
	}
	return res, nil, true
}

func decodeResult(rec fileRec) (hfmin.Result, error) {
	res := hfmin.Result{Exact: rec.Exact}
	var err error
	if !rec.Infeasible {
		if res.Cover, err = decCover(rec.Cover, rec.N); err != nil {
			return res, err
		}
	}
	if res.OnSet, err = decCover(rec.OnSet, rec.N); err != nil {
		return res, err
	}
	if res.OffSet, err = decCover(rec.OffSet, rec.N); err != nil {
		return res, err
	}
	if res.Required, err = decCubes(rec.Required, rec.N); err != nil {
		return res, err
	}
	if res.Primes, err = decCubes(rec.Primes, rec.N); err != nil {
		return res, err
	}
	for _, pv := range rec.Privileged {
		tr, terr := decCube(pv.Trans, rec.N)
		if terr != nil {
			return res, terr
		}
		need, nerr := decCube(pv.Need, rec.N)
		if nerr != nil {
			return res, nerr
		}
		res.Privileged = append(res.Privileged, hfmin.Privileged{Trans: tr, Need: need})
	}
	return res, nil
}

func encCube(c logic.Cube) cubeRec {
	z, o := c.Raw()
	return cubeRec{Z: z, O: o}
}

func encCubes(cs []logic.Cube) []cubeRec {
	if len(cs) == 0 {
		return nil
	}
	out := make([]cubeRec, len(cs))
	for i, c := range cs {
		out[i] = encCube(c)
	}
	return out
}

func decCube(r cubeRec, n int) (logic.Cube, error) {
	return logic.RawCube(r.Z, r.O, n)
}

// decCubes preserves nil-ness: an absent list decodes to a nil slice, so a
// loaded Result is reflect.DeepEqual to the computed one.
func decCubes(rs []cubeRec, n int) ([]logic.Cube, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make([]logic.Cube, len(rs))
	for i, r := range rs {
		c, err := decCube(r, n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func decCover(rs []cubeRec, n int) (logic.Cover, error) {
	cubes, err := decCubes(rs, n)
	if err != nil {
		return logic.Cover{}, err
	}
	return logic.Cover{N: n, Cubes: cubes}, nil
}
