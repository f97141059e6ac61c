package synth

import (
	"reflect"
	"testing"
)

// TestResultCodecRoundTrip synthesizes a real controller and asserts the
// serialized result decodes back to a deep-equal value with a
// byte-identical re-encoding — the property the stage cache's disk tier
// relies on.
func TestResultCodecRoundTrip(t *testing.T) {
	res, err := Synthesize(handshakeMachine())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, res)
	}
	again, err := EncodeResult(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(data) {
		t.Error("re-encoding a decoded result is not byte-identical")
	}
}

// TestResultDecodeStrict rejects malformed result documents.
func TestResultDecodeStrict(t *testing.T) {
	res, err := Synthesize(handshakeMachine())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"unknown field":    `{"controller":"c","bogus":1}`,
		"trailing garbage": string(valid) + `{}`,
		"bad encoding key": `{"controller":"c","encoding":{"x":1}}`,
		"not json":         `nope`,
	}
	for name, doc := range cases {
		if _, err := DecodeResult([]byte(doc)); err == nil {
			t.Errorf("%s: DecodeResult accepted %q", name, doc)
		}
	}
}
