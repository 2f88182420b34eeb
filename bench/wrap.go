package main

import (
	"context"
	"strings"

	"repro/internal/campaign"
	"repro/internal/results"
)

// The wrappers below put spans around the layer boundaries a campaign
// crosses. Each returns its argument untouched when the run is not
// traced, so an untraced run wires the layers exactly as cmd/figures does.

// tracedJobs wraps every job's Run in a harness span; job i is request
// i+1 of the pass.
func tracedJobs(jobs []campaign.Job, rec *recorder) []campaign.Job {
	if rec == nil {
		return jobs
	}
	out := append([]campaign.Job(nil), jobs...)
	for i := range out {
		run, name, request := out[i].Run, jobSpanName(out[i].Key), i+1
		out[i].Run = func(ctx context.Context, deps map[string]any) (any, error) {
			rec.push("harness", name, request)
			defer rec.pop()
			return run(ctx, deps)
		}
	}
	return out
}

// jobSpanName names a job's span after what it runs: "sweep.<kernel>" for
// a grid scenario, the key itself otherwise.
func jobSpanName(key string) string {
	if k := kernelOfKey(key); k != "" {
		return "sweep." + k
	}
	return strings.ReplaceAll(key, "/", ".")
}

// kernelOfKey names the flux dimension's value in a scenario key.
func kernelOfKey(key string) string {
	for _, tok := range strings.Split(key, "/") {
		for _, k := range sweepFluxes {
			if tok == k {
				return k
			}
		}
	}
	return ""
}

type tracedSink struct {
	results.Sink
	rec *recorder
}

// traceSink wraps a sink's Emit in a results span.
func traceSink(s results.Sink, rec *recorder) results.Sink {
	if rec == nil {
		return s
	}
	return tracedSink{s, rec}
}

func (t tracedSink) Emit(key string, row results.Row) error {
	t.rec.push("results", "emit", 0)
	defer t.rec.pop()
	return t.Sink.Emit(key, row)
}

type tracedStore struct {
	campaign.Store
	rec *recorder
}

// traceStore wraps a checkpoint store's Get and Put in store spans.
func traceStore(s campaign.Store, rec *recorder) campaign.Store {
	if rec == nil {
		return s
	}
	return tracedStore{s, rec}
}

func (t tracedStore) Get(key, hash string) ([]byte, bool, error) {
	t.rec.push("store", "get", 0)
	defer t.rec.pop()
	return t.Store.Get(key, hash)
}

func (t tracedStore) Put(key, hash string, payload []byte) error {
	t.rec.push("store", "put", 0)
	defer t.rec.pop()
	return t.Store.Put(key, hash, payload)
}
