package campaign

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
)

// Grid is a scenario specification: the cross product of first-class axes
// (Dimension values — ranks, cache size, CPU model, flux, or any
// user-defined machine or application parameter) times seed
// replications. Expanding a Grid yields one Scenario (and hence one
// campaign job) per combination, each with a deterministic per-scenario
// seed derived from the base seed and the scenario key.
//
// Three axes describe the machine identity every scenario key has always
// carried: rank count, interconnect and cache size. Expansion slots them
// into the canonical leading key positions — the swept axis when the grid
// lists one, otherwise a single-valued default derived from Base (key
// segments "p3", "base", "c512kB") — so keys, and hence derived seeds,
// are the same whether or not those axes are swept. Other unswept axes
// simply do not appear, so adding a dimension to the library never
// perturbs existing grids.
type Grid struct {
	// Base is the template world; every scenario starts from a copy.
	Base mpi.WorldConfig
	// Axes lists the swept dimensions, outermost first. Axis names and
	// value keys must be non-empty and unique (names across the grid, keys
	// within their axis); Scenarios rejects violations, because colliding
	// keys would silently alias scenario seeds and checkpoint entries.
	Axes []Dimension
	// Replications is the number of independently seeded repetitions of
	// each combination. Zero or negative means 1.
	Replications int
	// BaseSeed feeds per-scenario seed derivation. Zero means Base.Seed.
	BaseSeed int64
}

// Scenario is one expanded grid point: a fully specified simulated machine
// plus the coordinates it came from.
type Scenario struct {
	// Key is the stable scenario identifier ("p3/base/c512kB/r0"), unique
	// within the grid and the input to seed derivation.
	Key string
	// World is the scenario's machine, seed already derived.
	World mpi.WorldConfig
	// Coords locates the scenario along every grid axis, in axis order —
	// including the implicit rank/net/cache defaults when unswept.
	Coords []Coord
	// Replication is the repetition index in [0, Replications).
	Replication int
}

// Coord returns the scenario's coordinate on the named axis.
func (sc Scenario) Coord(axis string) (Coord, bool) {
	for _, c := range sc.Coords {
		if c.Axis == axis {
			return c, true
		}
	}
	return Coord{}, false
}

// Label returns the scenario's key token on the named axis, or "" when the
// axis is not part of the scenario's grid.
func (sc Scenario) Label(axis string) string {
	c, _ := sc.Coord(axis)
	return c.Key
}

// Num returns the scenario's numeric coordinate on the named axis. Axes
// whose payloads are not int, int64 or float64 report false.
func (sc Scenario) Num(axis string) (float64, bool) {
	c, ok := sc.Coord(axis)
	if !ok {
		return 0, false
	}
	switch v := c.Value.(type) {
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// defaultAxis builds the single-valued implicit axis for an unswept
// rank/net/cache dimension. Values carry no Apply: the base world already
// holds the right setting (and, for the cache, possibly a byte size that
// is not kB-aligned and must not be rounded through a kB count).
func defaultAxis(name string, base mpi.WorldConfig) Dimension {
	switch name {
	case AxisRank:
		return Dimension{Name: AxisRank, Values: []DimValue{
			{Key: fmt.Sprintf("p%d", base.Procs), Value: base.Procs},
		}}
	case AxisNet:
		return Dimension{Name: AxisNet, Values: []DimValue{
			{Key: "base", Value: "base"},
		}}
	default:
		kb := base.Cache.SizeBytes / 1024
		return Dimension{Name: AxisCache, Values: []DimValue{
			{Key: fmt.Sprintf("c%dkB", kb), Value: kb},
		}}
	}
}

// axes returns the grid's effective axis list. The three machine-identity
// axes always occupy the canonical leading positions rank, net, cache —
// swept or defaulted — because scenario keys have always started with
// "p3/base/c512kB" regardless of which of those dimensions a grid sweeps;
// slotting a swept rank axis anywhere else would re-key (and so re-seed
// and re-checkpoint) grids that used to spell Ranks as a struct field.
// The remaining explicit axes follow in the order given.
func (g Grid) axes() []Dimension {
	used := make([]bool, len(g.Axes))
	out := make([]Dimension, 0, len(g.Axes)+3)
	for _, name := range []string{AxisRank, AxisNet, AxisCache} {
		slotted := false
		for i, d := range g.Axes {
			if d.Name == name && !used[i] {
				out = append(out, d)
				used[i] = true
				slotted = true
				break
			}
		}
		if !slotted {
			out = append(out, defaultAxis(name, g.Base))
		}
	}
	// Any leftover duplicate of a canonical name stays in the list so
	// validate rejects it.
	for i, d := range g.Axes {
		if !used[i] {
			out = append(out, d)
		}
	}
	return out
}

// validate rejects axis sets whose expansion would alias scenario keys —
// and therefore seeds and checkpoint entries — or drop combinations.
func validate(axes []Dimension) error {
	seen := map[string]bool{}
	for _, d := range axes {
		if d.Name == "" {
			return fmt.Errorf("campaign: grid axis with empty name")
		}
		if seen[d.Name] {
			return fmt.Errorf("campaign: duplicate grid axis %q", d.Name)
		}
		seen[d.Name] = true
		if len(d.Values) == 0 {
			return fmt.Errorf("campaign: grid axis %q has no values", d.Name)
		}
		keys := map[string]bool{}
		for _, v := range d.Values {
			if v.Key == "" {
				return fmt.Errorf("campaign: grid axis %q has a value with an empty key", d.Name)
			}
			if keys[v.Key] {
				return fmt.Errorf("campaign: grid axis %q has duplicate value key %q", d.Name, v.Key)
			}
			keys[v.Key] = true
		}
	}
	return nil
}

// Scenarios expands the grid in deterministic nested order: the first axis
// outermost, the last axis innermost, replications innermost of all. Each
// value's key token becomes one segment of the scenario key
// ("p3/base/c512kB/cpu2x/efm/r0"); unswept axes other than the implicit
// rank/net/cache defaults contribute nothing, keeping existing grids' keys
// — and hence their derived seeds — stable. It returns an error for
// duplicate axis names, duplicate value keys within an axis (either would
// silently alias scenario keys), or a scenario whose expanded world fails
// mpi validation — a bad clock or scheduler config surfaces here with the
// offending scenario key instead of panicking mid-campaign.
func (g Grid) Scenarios() ([]Scenario, error) {
	axes := g.axes()
	if err := validate(axes); err != nil {
		return nil, err
	}
	reps := g.Replications
	if reps <= 0 {
		reps = 1
	}
	base := g.BaseSeed
	if base == 0 {
		base = g.Base.Seed
	}
	total := reps
	for _, d := range axes {
		total *= len(d.Values)
	}
	out := make([]Scenario, 0, total)
	idx := make([]int, len(axes))
	var sb strings.Builder
	for {
		for rep := 0; rep < reps; rep++ {
			sb.Reset()
			w := g.Base
			coords := make([]Coord, len(axes))
			for ai, d := range axes {
				v := d.Values[idx[ai]]
				if ai > 0 {
					sb.WriteByte('/')
				}
				sb.WriteString(v.Key)
				coords[ai] = Coord{Axis: d.Name, Key: v.Key, Value: v.Value}
				if v.Apply != nil {
					v.Apply(&w)
				}
			}
			fmt.Fprintf(&sb, "/r%d", rep)
			key := sb.String()
			w.Seed = DeriveSeed(base, key)
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("campaign: scenario %q: %w", key, err)
			}
			out = append(out, Scenario{
				Key: key, World: w, Coords: coords, Replication: rep,
			})
		}
		// Advance the mixed-radix odometer, last axis fastest.
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return out, nil
		}
	}
}
