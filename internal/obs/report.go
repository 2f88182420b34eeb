package obs

import (
	"fmt"
	"io"
	"sort"
)

// TrackStat summarises one trace track: how many spans and instants it
// recorded, the busy time inside spans, and the window they cover.
type TrackStat struct {
	Process  string
	Track    string
	Spans    int
	Instants int
	BusyUS   float64
	FirstUS  float64
	LastUS   float64
}

// TraceStats aggregates a parsed trace into per-track statistics,
// ordered by (process, track) metadata registration order.
func TraceStats(tf *TraceFile) []TrackStat {
	type key struct{ pid, tid int }
	names := map[int]string{}
	order := []key{}
	stats := map[key]*TrackStat{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		switch ev.Name {
		case "process_name":
			if n, ok := ev.Args["name"].(string); ok {
				names[ev.PID] = n
			}
		case "thread_name":
			k := key{ev.PID, ev.TID}
			if _, dup := stats[k]; !dup {
				n, _ := ev.Args["name"].(string)
				stats[k] = &TrackStat{Process: names[ev.PID], Track: n}
				order = append(order, k)
			}
		}
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		k := key{ev.PID, ev.TID}
		st := stats[k]
		if st == nil {
			st = &TrackStat{Process: names[ev.PID], Track: fmt.Sprintf("tid %d", ev.TID)}
			stats[k] = st
			order = append(order, k)
		}
		end := ev.TS
		switch ev.Ph {
		case "X":
			st.Spans++
			if ev.Dur != nil {
				st.BusyUS += *ev.Dur
				end += *ev.Dur
			}
		case "i":
			st.Instants++
		}
		if st.Spans+st.Instants == 1 || ev.TS < st.FirstUS {
			st.FirstUS = ev.TS
		}
		if end > st.LastUS {
			st.LastUS = end
		}
	}
	out := make([]TrackStat, 0, len(order))
	for _, k := range order {
		out = append(out, *stats[k])
	}
	return out
}

// OwnerExec is one completed job execution attributed to a lease
// owner, as recovered from the store's lease audit log.
type OwnerExec struct {
	Owner     string
	Key       string
	ElapsedUS float64
	EndUnixNS int64
}

// OwnerStat is one fleet member's row in the throughput report.
type OwnerStat struct {
	Owner   string
	Jobs    int
	BusyUS  float64 // sum of recorded job elapsed times
	SpanUS  float64 // first job start to last job end, when timestamps exist
	PerSec  float64 // jobs per second of span (0 when span unknown)
	SharePC float64 // percent of all executed jobs
}

// OwnerStats aggregates audit executions into per-owner rows, sorted
// by owner name.
func OwnerStats(execs []OwnerExec) []OwnerStat {
	byOwner := map[string]*OwnerStat{}
	firstStart := map[string]int64{}
	lastEnd := map[string]int64{}
	for _, e := range execs {
		st := byOwner[e.Owner]
		if st == nil {
			st = &OwnerStat{Owner: e.Owner}
			byOwner[e.Owner] = st
		}
		st.Jobs++
		st.BusyUS += e.ElapsedUS
		if e.EndUnixNS > 0 {
			start := e.EndUnixNS - int64(e.ElapsedUS*1e3)
			if f, ok := firstStart[e.Owner]; !ok || start < f {
				firstStart[e.Owner] = start
			}
			if l, ok := lastEnd[e.Owner]; !ok || e.EndUnixNS > l {
				lastEnd[e.Owner] = e.EndUnixNS
			}
		}
	}
	total := len(execs)
	out := make([]OwnerStat, 0, len(byOwner))
	for owner, st := range byOwner {
		if f, ok := firstStart[owner]; ok {
			st.SpanUS = float64(lastEnd[owner]-f) / 1e3
			if st.SpanUS > 0 {
				st.PerSec = float64(st.Jobs) / (st.SpanUS / 1e6)
			}
		}
		if total > 0 {
			st.SharePC = 100 * float64(st.Jobs) / float64(total)
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// WriteOwnerReport renders the per-owner throughput table the ROADMAP's
// elastic-fleet item asks for.
func WriteOwnerReport(w io.Writer, execs []OwnerExec) error {
	stats := OwnerStats(execs)
	if len(stats) == 0 {
		_, err := fmt.Fprintln(w, "owner throughput: no executions recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-16s %6s %12s %12s %10s %7s\n",
		"owner", "jobs", "busy_ms", "span_ms", "jobs/s", "share"); err != nil {
		return err
	}
	for _, st := range stats {
		if _, err := fmt.Fprintf(w, "%-16s %6d %12.3f %12.3f %10.3f %6.1f%%\n",
			st.Owner, st.Jobs, st.BusyUS/1e3, st.SpanUS/1e3, st.PerSec, st.SharePC); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrackReport renders the per-track (per worker / per rank /
// per owner) side of the throughput report from a parsed trace. Tracks
// that recorded nothing (ranks that never communicated) are summarized
// in one closing line instead of listed.
func WriteTrackReport(w io.Writer, tf *TraceFile) error {
	stats := TraceStats(tf)
	if len(stats) == 0 {
		_, err := fmt.Fprintln(w, "trace: no tracks recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %-20s %7s %9s %12s %12s\n",
		"process", "track", "spans", "instants", "busy_ms", "window_ms"); err != nil {
		return err
	}
	idle := 0
	for _, st := range stats {
		if st.Spans == 0 && st.Instants == 0 {
			idle++
			continue
		}
		if _, err := fmt.Fprintf(w, "%-10s %-20s %7d %9d %12.3f %12.3f\n",
			st.Process, st.Track, st.Spans, st.Instants, st.BusyUS/1e3, (st.LastUS-st.FirstUS)/1e3); err != nil {
			return err
		}
	}
	if idle > 0 {
		if _, err := fmt.Fprintf(w, "(%d idle track(s) with no events omitted)\n", idle); err != nil {
			return err
		}
	}
	return nil
}
