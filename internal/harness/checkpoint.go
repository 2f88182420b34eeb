package harness

import (
	"bytes"
	"encoding/gob"

	"repro/internal/euler"
	"repro/internal/perfmodel"
	"repro/internal/results/store"
)

// This file is the harness's checkpoint codec: every campaign job the
// harness builds carries a configuration hash plus gob encode/decode hooks,
// so a campaign.Config with a Store resumes interrupted runs without
// re-executing finished jobs. Payloads round-trip exactly — gob writes
// float64 bits verbatim and tau.Profile implements GobEncoder — so a
// resumed figure regeneration is byte-identical to an uninterrupted one.

// checkpointVersion salts every job hash. Hashes are stable within a
// version and distinct for distinct configs; bump it when a config struct
// or a payload's wire format changes, so stale store entries stop matching
// and the store refills.
const checkpointVersion = "harness-ckpt-v4"

func init() {
	// Concrete types that travel inside interface-typed fields:
	// perfmodel.Model in ComponentModel, and results.Field values in
	// checkpointed row replays.
	gob.Register(perfmodel.Poly{})
	gob.Register(perfmodel.PowerLaw{})
	gob.Register(euler.X)
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
}

// jobHash fingerprints a job kind plus its full configuration.
func jobHash(kind string, cfgs ...any) string {
	parts := make([]any, 0, len(cfgs)+2)
	parts = append(parts, checkpointVersion, kind)
	parts = append(parts, cfgs...)
	return store.Hash(parts...)
}

// encodeGob marshals a checkpoint payload.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeGob unmarshals a checkpoint payload into a T.
func decodeGob[T any](data []byte) (T, error) {
	var v T
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}
