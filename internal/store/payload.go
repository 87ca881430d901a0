package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Payload is the canonical stored form of one mission's verdict — exactly the
// deterministic parts of a mission result. Name, wall time and cache markers
// are identity that the consumer re-attaches on reuse; they never enter the
// store, so the bytes under a fingerprint are the same no matter which
// process, job or subsystem computed them. The fleet engine's mission runner
// is the only encoder and decoder, and both sweep cells and deterministic
// certification cells run through it, which is what lets them share entries.
type Payload struct {
	Metrics sim.Metrics `json:"metrics"`
}

// Encode renders the payload as canonical JSON bytes for storage.
func (p Payload) Encode() ([]byte, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("store: encode payload: %w", err)
	}
	return raw, nil
}

// DecodePayload parses stored bytes back into a Payload. An error means the
// entry is unusable and the caller should recompute; with checksummed tiers
// this indicates an encoding-era bug, not bit rot. Unknown fields are
// ignored, so entries that still carry the switch log older encoders stored
// beside the metrics decode to the same Metrics. An entry that parses but
// carries no metrics object (null, {}, {"metrics":null}), or metrics with a
// non-positive Duration ({"metrics":{}}), is an error: every stored verdict
// is a completed mission, which always simulated for some time, so serving
// such an entry would report zero Metrics as a verdict.
func DecodePayload(raw []byte) (Payload, error) {
	var wire struct {
		Metrics *sim.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return Payload{}, fmt.Errorf("store: decode payload: %w", err)
	}
	if wire.Metrics == nil {
		return Payload{}, errors.New("store: decode payload: no metrics object")
	}
	if wire.Metrics.Duration <= 0 {
		return Payload{}, fmt.Errorf("store: decode payload: mission duration %v is not positive", wire.Metrics.Duration)
	}
	return Payload{Metrics: *wire.Metrics}, nil
}
