package campaign

import (
	"fmt"

	"repro/internal/mpi"
)

// This file is the first-class axis abstraction of the experiment grid.
// A Dimension is an axis as data — a stable name plus an ordered value
// list — instead of a dedicated struct field on Grid, so adding a machine
// or application parameter to the sweep space is one Dimension value, not
// a cross-cutting edit through grid expansion, scenario keys, seed
// derivation and checkpoint hashing. The constructors below are the axes
// some command, example or benchmark sweeps (ranks, cache size, flux, CPU
// model); anything else is a Dimension literal at its one use. The rank
// scheduler is not an axis: it changes how a world runs, never what it
// simulates, so it is set on the grid's Base world.

// Canonical axis names. Grid expansion and the harness's scenario-to-config
// mapping recognize these; user-defined dimensions may use any other name.
const (
	AxisRank  = "rank"
	AxisNet   = "net"
	AxisCache = "cache"
	AxisFlux  = "flux"
	AxisCPU   = "cpu"
)

// DimValue is one value along a Dimension.
type DimValue struct {
	// Key is the value's stable token: it becomes one segment of every
	// containing scenario's key ("c512kB", "cpu2x", "efm"), so it must be
	// non-empty and unique within its axis. Changing a token re-keys — and
	// therefore re-seeds and re-checkpoints — every scenario built from it.
	Key string
	// Value is the payload carried onto the scenario's coordinate. The
	// machine axes carry numbers (int kB for the cache, float64 clock scale
	// for the CPU), which Scenario.Num reads back for cross-scenario trend
	// fits.
	Value any
	// Apply mutates the scenario's machine. Nil for app-level axes whose
	// consumers read the coordinate instead (flux).
	Apply func(*mpi.WorldConfig)
}

// Dimension is one first-class grid axis: a stable name and an ordered
// value list. Grid.Axes cross-products dimensions into scenarios.
type Dimension struct {
	// Name identifies the axis ("cache", "cpu", ...) within its grid.
	Name string
	// Values is the ordered sweep list.
	Values []DimValue
}

// Coord locates a scenario along one axis: the axis name, the value's key
// token, and the value payload.
type Coord struct {
	Axis  string
	Key   string
	Value any
}

// RankAxis sweeps the world size. Keys are "p<n>"; values apply
// WorldConfig.Procs.
func RankAxis(procs ...int) Dimension {
	d := Dimension{Name: AxisRank}
	for _, p := range procs {
		p := p
		d.Values = append(d.Values, DimValue{
			Key: fmt.Sprintf("p%d", p), Value: p,
			Apply: func(w *mpi.WorldConfig) { w.Procs = p },
		})
	}
	return d
}

// CacheAxis sweeps the per-rank cache capacity in kB. Keys are "c<n>kB";
// values apply WorldConfig.Cache.SizeBytes.
func CacheAxis(kbs ...int) Dimension {
	d := Dimension{Name: AxisCache}
	for _, kb := range kbs {
		kb := kb
		d.Values = append(d.Values, DimValue{
			Key: fmt.Sprintf("c%dkB", kb), Value: kb,
			Apply: func(w *mpi.WorldConfig) { w.Cache.SizeBytes = kb * 1024 },
		})
	}
	return d
}

// FluxAxis sweeps the app-level flux choice ("godunov", "efm", "states").
// Keys are the names themselves; the world is untouched — consumers read
// the coordinate (the harness maps it onto the measured kernel in sweep
// grids and the assembly's flux implementation in case-study runs).
func FluxAxis(fluxes ...string) Dimension {
	d := Dimension{Name: AxisFlux}
	for _, f := range fluxes {
		d.Values = append(d.Values, DimValue{Key: f, Value: f})
	}
	return d
}

// CPUClockAxis sweeps the Section 6 "parameterized by processor speed"
// axis: keys are "cpu<s>x", values the float64 s, which scales CPU.ClockGHz.
// CPUClockAxis(0.5, 1, 2) sweeps half, calibrated and double clock speed.
func CPUClockAxis(scales ...float64) Dimension {
	d := Dimension{Name: AxisCPU}
	for _, s := range scales {
		s := s
		d.Values = append(d.Values, DimValue{
			Key: fmt.Sprintf("cpu%gx", s), Value: s,
			Apply: func(w *mpi.WorldConfig) { w.CPU.ClockGHz *= s },
		})
	}
	return d
}
