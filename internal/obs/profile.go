package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Outputs names where a command's run leaves its self-observation: the
// values of its -cpuprofile, -memprofile, -trace, -metricsdump and -metrics
// flags. An empty field switches that output off.
type Outputs struct {
	// CPUProfile and MemProfile are runtime/pprof files for go tool pprof.
	CPUProfile, MemProfile string
	// Trace receives the run's Chrome trace-event JSON and MetricsDump the
	// final registry in text exposition format, both when the run ends.
	Trace, MetricsDump string
	// MetricsAddr serves live /metrics and /trace while the run executes.
	MetricsAddr string
}

// Start begins what o names, in the order the observed layers need: the
// CPU profile first, then — when a trace, a dump or the live endpoint is
// asked for — a fresh process-global observer, which must be enabled
// before any store, lease manager, world or campaign is constructed
// because those capture their instruments at construction. The returned
// stop function flushes in reverse — trace, metrics dump, endpoint,
// observer, profiles — and returns what failed; call it once, on
// every way out of the run, because the trace and the profile of a run
// that failed are what its post-mortem wants. Observation is write-only:
// no byte the run renders depends on o.
func (o Outputs) Start() (stop func() error, err error) {
	stopProfiles, err := startProfiles(o.CPUProfile, o.MemProfile)
	if err != nil {
		return nil, err
	}
	if o.Trace == "" && o.MetricsDump == "" && o.MetricsAddr == "" {
		return stopProfiles, nil
	}
	observer := New(Options{})
	Enable(observer)
	var live *MetricsServer
	if o.MetricsAddr != "" {
		if live, err = observer.Serve(o.MetricsAddr); err != nil {
			Disable()
			_ = stopProfiles() // the listen error is the one to report
			return nil, fmt.Errorf("-metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", live.Addr())
	}
	return func() error {
		var traceErr, dumpErr, liveErr error
		if o.Trace != "" {
			traceErr = observer.Tracer().WriteTraceFile(o.Trace)
		}
		if o.MetricsDump != "" {
			dumpErr = observer.Metrics().DumpFile(o.MetricsDump)
		}
		if live != nil {
			liveErr = live.Close()
		}
		Disable()
		return errors.Join(traceErr, dumpErr, liveErr, stopProfiles())
	}, nil
}

// startProfiles starts a CPU profile into cpuPath and arranges a heap
// profile into memPath; an empty path disables that profile. The returned
// stop function ends the CPU profile and writes the heap profile (after a
// GC, so it shows live data and complete allocation counts).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}
