package main

import "time"

// This file holds every wall-clock read of the benchmark. The layers
// under test are deterministic and never see these values: they receive
// only inputs generated from -seed.

// tick is a wall-clock instant in nanoseconds since the process epoch.
type tick int64

// epoch anchors ticks so trace timestamps start near zero.
//
//repolint:allow wallclock -- the benchmark measures host time; this is the one file that reads it
var epoch = time.Now()

// now reads the monotonic wall clock.
//
//repolint:allow wallclock -- the benchmark measures host time; this is the one file that reads it
func now() tick { return tick(time.Since(epoch)) }

// since returns the seconds elapsed since t.
func since(t tick) float64 { return float64(now()-t) / 1e9 }

// seconds converts a tick difference to seconds.
func (t tick) seconds() float64 { return float64(t) / 1e9 }
