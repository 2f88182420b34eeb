// Package obs is the repository's self-observability layer: a span
// tracer exporting Chrome trace-event JSON, a metrics registry with
// text exposition, and report helpers that turn a finished run's trace
// and lease audit into per-owner / per-track throughput tables.
//
// The package is built around two invariants:
//
//   - Determinism: observation never perturbs the observed run. Nothing
//     in this package feeds back into simulation state, scenario keys,
//     checkpoint hashes, or seeds; instrumented layers consult the
//     observer only to record, never to decide.
//   - Nil-safety: every method on Observer, Tracer, Track, Span,
//     Registry, Counter and Histogram is safe on a nil receiver
//     and does nothing. Hot paths hold possibly-nil handles and call
//     through unconditionally, so the disabled cost is a nil check.
//
// Layers pick up the process-global observer installed with Enable; a
// nil global (the default) disables everything. Explicit Tracer and
// Registry values can also be used directly, which is what the unit
// tests do.
package obs

import "sync/atomic"

// Observer bundles the tracer and the metrics registry that the
// instrumented layers record into.
type Observer struct {
	tracer  *Tracer
	metrics *Registry
}

// Options configures a new Observer.
type Options struct {
	// TrackCapacity is the per-track event ring capacity. Zero means
	// DefaultTrackCapacity. Oldest events are overwritten when a track
	// overflows; the drop count is reported in the exported trace.
	TrackCapacity int
}

// DefaultTrackCapacity is the per-track ring size used when Options
// does not override it.
const DefaultTrackCapacity = 8192

// New builds an Observer with a fresh tracer and registry.
func New(opts Options) *Observer {
	c := opts.TrackCapacity
	if c <= 0 {
		c = DefaultTrackCapacity
	}
	return &Observer{tracer: NewTracer(c), metrics: NewRegistry()}
}

// Tracer returns the observer's tracer, or nil for a nil observer.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the observer's registry, or nil for a nil observer.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// active is the process-global observer; nil when observability is off.
var active atomic.Pointer[Observer]

// Enable installs o as the process-global observer picked up by the
// campaign engine, the MPI world, the store and the lease manager.
func Enable(o *Observer) { active.Store(o) }

// Disable removes the process-global observer.
func Disable() { active.Store(nil) }

// Active returns the process-global observer, or nil when disabled.
func Active() *Observer { return active.Load() }
