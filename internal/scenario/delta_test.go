package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeDelta is the external-bytes path every Delta surface shares: strict
// JSON decode, Apply onto base, then the scenario layer's own validation.
func decodeDelta(data []byte, base Spec) (Delta, Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Delta
	if err := dec.Decode(&d); err != nil {
		return d, Spec{}, err
	}
	s, err := d.Apply(base)
	if err != nil {
		return d, Spec{}, err
	}
	return d, s, s.Validate()
}

// TestDeltaRejectsNonPositive: every "zero means default" knob refuses an
// explicit zero or negative value with an error naming the field, instead
// of silently running the base's value.
func TestDeltaRejectsNonPositive(t *testing.T) {
	base := MustGet("surveillance-city")
	for _, field := range []string{
		"hysteresis", "initial_battery", "drain_multiple", "plan_margin", "motion_delta_ns", "duration_ns",
	} {
		for _, v := range []string{"0", "-1"} {
			body := `{"` + field + `":` + v + `}`
			if _, _, err := decodeDelta([]byte(body), base); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s: err = %v, want a refusal naming %s", body, err, field)
			}
		}
	}
}

// FuzzDeltaDecode drives the strict Delta decode and Apply with arbitrary
// bytes over a registry spec picked by the second argument. Whatever the
// bytes, nothing panics; an accepted delta re-encodes to bytes that decode
// and apply to a spec with the same fingerprint; and decoding the same bytes
// twice yields the same canonical spec.
func FuzzDeltaDecode(f *testing.F) {
	for _, seed := range []string{
		// The three committed falsify corpus entries' params.
		`{"plan_margin":1.2,"fault_first_ns":1163000000,"fault_every_ns":3000000000,"fault_len_ns":2147000000,"fault_dir":{"X":0,"Y":0,"Z":-1},"jitter_prob":0.0241,"jitter_sc_only":true,"initial_battery":0.33,"drain_multiple":4.8,"duration_ns":4000000000}`,
		`{"plan_margin":1.57,"fault_first_ns":1163000000,"fault_every_ns":3000000000,"fault_len_ns":2147000000,"fault_dir":{"X":0,"Y":0,"Z":-1},"jitter_prob":0.0241,"jitter_sc_only":true,"initial_battery":0.33,"drain_multiple":4.8,"duration_ns":4000000000}`,
		`{"plan_margin":1.2,"fault_first_ns":1163000000,"fault_every_ns":3000000000,"fault_len_ns":2147000000,"fault_dir":{"X":0,"Y":0,"Z":-1},"jitter_prob":0.0241,"jitter_sc_only":true,"initial_battery":0.38,"drain_multiple":27.6,"duration_ns":4000000000}`,
		// The schedule-strategy -base of the soter-falsify CI step.
		`{"no_planner_module":true,"no_battery_module":true,"fault_first_ns":500000000,"fault_every_ns":60000000000,"fault_len_ns":1500000000,"fault_dir":{"X":1,"Y":0,"Z":0}}`,
		`{"policy":"sticky-sc:25","workspace":"canyon","planner_bug":"none","planner_bug_rate":0.5,"motion_delta_ns":40000000,"hysteresis":3}`,
	} {
		f.Add([]byte(seed), uint8(0))
	}
	specs := All()
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		base := specs[int(pick)%len(specs)]
		d, spec, err := decodeDelta(data, base)
		if err != nil {
			return
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatalf("accepted delta %s: canonical: %v", data, err)
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted delta %s does not encode: %v", data, err)
		}
		_, again, err := decodeDelta(enc, base)
		if err != nil {
			t.Fatalf("re-encoded delta %s refused: %v", enc, err)
		}
		fp, _ := spec.Fingerprint(1)
		if fp2, err := again.Fingerprint(1); err != nil || fp2 != fp {
			t.Fatalf("delta %s re-encoded as %s: fingerprint %s, want %s (%v)", data, enc, fp2, fp, err)
		}
		_, twice, err := decodeDelta(data, base)
		if err != nil {
			t.Fatalf("delta %s accepted once, then refused: %v", data, err)
		}
		if canon2, err := twice.Canonical(); err != nil || !bytes.Equal(canon2, canon) {
			t.Fatalf("delta %s applied twice to different specs:\n%s\n%s", data, canon, canon2)
		}
	})
}
