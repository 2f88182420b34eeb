package harness

import (
	"bytes"
	"encoding/gob"

	"repro/internal/mpi"
	"repro/internal/results/store"
)

// This file is the harness's checkpoint codec: every campaign job the
// harness builds carries a configuration hash plus gob encode/decode hooks
// for its measurement (a *SweepResult or a *CaseStudyResult), so a
// campaign.Config with a Store resumes interrupted runs without
// re-executing finished jobs. Payloads round-trip exactly — gob writes
// float64 bits verbatim, and a profile is plain tau.Timer values — and hold
// no map and no interface, so one measurement always encodes to the same
// bytes and no concrete type needs registering with gob.

// checkpointVersion salts every job hash. Hashes are stable within a
// version and distinct for distinct configs; bump it when a config struct
// or a payload type changes (testdata/payload_schema.txt pins the payload
// types to it), so stale store entries stop matching and the store
// refills.
const checkpointVersion = "harness-ckpt-v8"

// jobHash fingerprints a job kind plus its full configuration.
func jobHash(kind string, cfgs ...any) string { return jobHasher(kind).Hash(cfgs...) }

// jobHasher is jobHash with the leading configurations rendered once:
// jobHasher(kind, a).Hash(b) equals jobHash(kind, a, b).
func jobHasher(kind string, cfgs ...any) store.Hasher {
	return store.NewHasher(append([]any{checkpointVersion, kind}, cfgs...)...)
}

// serialWorld is the world a job hash names: the scheduler is how a world
// runs, and every scheduler measures the same bytes, so a store filled
// under one serves them all. Hashing the serial choice keeps the hashes
// and stored entries of serial runs valid.
func serialWorld(w mpi.WorldConfig) mpi.WorldConfig {
	return w.WithScheduler(mpi.Serial, 0)
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
