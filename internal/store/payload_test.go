package store

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// TestDecodePayloadTable: every accepted entry carries a metrics object
// with a positive mission duration; anything else — degenerate JSON and an
// all-zero metrics object included — is an error, so the fleet recomputes
// instead of serving zero Metrics as a verdict. Entries from encoders that
// stored a switch log beside the metrics still decode.
func TestDecodePayloadTable(t *testing.T) {
	for _, tc := range []struct {
		name, raw string
		ok        bool
	}{
		{"null", `null`, false},
		{"empty object", `{}`, false},
		{"null metrics", `{"metrics":null}`, false},
		{"switches only", `{"switches":[{"Time":1,"Module":"m","From":1,"To":2}]}`, false},
		{"metrics array", `{"metrics":[]}`, false},
		{"top-level array", `[]`, false},
		{"empty input", ``, false},
		{"garbage", `not json`, false},
		{"trailing data", `{"metrics":{}} {}`, false},
		{"empty metrics", `{"metrics":{}}`, false},
		{"negative duration", `{"metrics":{"Duration":-1,"TargetsVisited":42}}`, false},
		{"metrics", `{"metrics":{"Duration":5000000000,"TargetsVisited":42}}`, true},
		{"metrics and switches", `{"metrics":{"Duration":5000000000,"TargetsVisited":42},"switches":[{"Time":1,"Module":"m","From":1,"To":2,"Reason":"recovery","Coordinated":false}]}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := DecodePayload([]byte(tc.raw))
			if (err == nil) != tc.ok {
				t.Fatalf("DecodePayload(%s) = %+v, %v; want ok=%v", tc.raw, p, err, tc.ok)
			}
			if err != nil && !reflect.DeepEqual(p, Payload{}) {
				t.Errorf("rejected entry returned %+v", p)
			}
		})
	}
}

// TestDecodePayloadOlderFormat: an entry written with the switch log beside
// the metrics (testdata/switchlog_payload.json, a surveillance mission's real
// stored bytes) decodes to exactly the metrics it stored — re-encoding them
// reproduces the entry minus its "switches" member, byte for byte.
func TestDecodePayloadOlderFormat(t *testing.T) {
	raw, err := os.ReadFile("testdata/switchlog_payload.json")
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(raw, []byte(`,"switches":[{`))
	if cut < 0 {
		t.Fatal("testdata entry carries no switch log")
	}
	want := append(raw[:cut:cut], '}')
	p, err := DecodePayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-encoded entry\n%s\nwant\n%s", got, want)
	}
}

// FuzzDecodePayload: DecodePayload never panics, is deterministic, and
// every entry it accepts survives Encode and a second decode unchanged.
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodePayload(raw)
		again, errAgain := DecodePayload(raw)
		if !reflect.DeepEqual(p, again) || (err == nil) != (errAgain == nil) || (err != nil && err.Error() != errAgain.Error()) {
			t.Fatalf("nondeterministic decode: %+v, %v then %+v, %v", p, err, again, errAgain)
		}
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted entry does not encode: %v", err)
		}
		back, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded entry %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the payload:\n%+v\nvs\n%+v", p, back)
		}
	})
}
