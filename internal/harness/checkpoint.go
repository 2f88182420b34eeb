package harness

import (
	"bytes"
	"encoding/gob"

	"repro/internal/results/store"
)

// This file is the harness's checkpoint codec: every campaign job the
// harness builds carries a configuration hash plus gob encode/decode hooks
// for its measurement (a *SweepResult or a *CaseStudyResult), so a
// campaign.Config with a Store resumes interrupted runs without
// re-executing finished jobs. Payloads round-trip exactly — gob writes
// float64 bits verbatim and tau.Profile implements GobEncoder — and hold
// no map and no interface, so one measurement always encodes to the same
// bytes and no concrete type needs registering with gob.

// checkpointVersion salts every job hash. Hashes are stable within a
// version and distinct for distinct configs; bump it when a config struct
// or a payload type changes (testdata/payload_schema.txt pins the payload
// types to it), so stale store entries stop matching and the store
// refills.
const checkpointVersion = "harness-ckpt-v5"

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
