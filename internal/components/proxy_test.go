package components

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/amr"
	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// callStream is the ordered log of what a proxy does: its monitor
// notifications and its forwarded calls. Nothing in the proxy test moves
// the rank's clock except a proxy's ChargeCall, so every clock step
// between two entries is logged as one "charge" per call's cost.
type callStream struct {
	proc   *platform.Proc
	call   platform.Time // the clock advance of one ChargeCall
	last   platform.Time
	events []string
}

func (s *callStream) charges() {
	now := s.proc.Now()
	for n := math.Round((now - s.last) / s.call); n > 0; n-- {
		s.events = append(s.events, "charge")
	}
	s.last = now
}

func (s *callStream) add(format string, args ...any) {
	s.charges()
	s.events = append(s.events, fmt.Sprintf(format, args...))
}

// take returns the entries logged since the last take.
func (s *callStream) take() []string {
	s.charges()
	out := s.events
	s.events = nil
	return out
}

// streamMonitor is a core.MonitorPort whose records are a real
// core.Mastermind's, over a streamMeas.
type streamMonitor struct{ *core.Mastermind }

func newStreamMonitor(s *callStream) *streamMonitor {
	meas := &streamMeas{s: s}
	meas.mm = core.NewMastermind(meas)
	return &streamMonitor{meas.mm}
}

func (m *streamMonitor) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(m, "monitor", TypeMonitorPort)
}

// streamMeas is a core.MeasurementPort that logs its timers: a record's
// Start shows as the start of its timer, with the parameter values the
// record stored before starting it, and its Stop as the stop. It measures
// nothing.
type streamMeas struct {
	s  *callStream
	mm *core.Mastermind
}

func (m *streamMeas) StartTimer(name, _ string) {
	rec := m.mm.Record(name)
	params := make([]core.Param, len(rec.ParamNames))
	for i, n := range rec.ParamNames {
		params[i] = core.Param{Name: n, Value: rec.Params[i][len(rec.Params[i])-1]}
	}
	m.s.add("start %s %v", name, params)
}

func (m *streamMeas) StopTimer(name string)         { m.s.add("stop %s", name) }
func (m *streamMeas) MetricNames() []string         { return []string{"WALL_CLOCK"} }
func (m *streamMeas) QueryMetrics() []float64       { return []float64{0} }
func (m *streamMeas) GroupInclusive(string) float64 { return 0 }

// Fake targets: each logs the forwarded call and returns a value the test
// can recognise.
type fakeStates struct{ s *callStream }

func (c *fakeStates) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(c, "states", TypeStatesPort)
}

func (c *fakeStates) Compute(b *euler.Block, dir euler.Dir, _, _ *euler.EdgeField) {
	c.s.add("forward Compute(%dx%d, %d)", b.Nx, b.Ny, dir)
}

type fakeFlux struct{ s *callStream }

func (c *fakeFlux) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(c, "flux", TypeFluxPort)
}

func (c *fakeFlux) Compute(qL, _, flux *euler.EdgeField) int {
	c.s.add("forward Compute(%dx%d, %d)", qL.NxCells, qL.NyCells, flux.Dir)
	return 7
}

type fakeMesh struct{ s *callStream }

func (c *fakeMesh) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(c, "mesh", TypeMeshPort)
}

var errFakeInit = errors.New("fake mesh init")

func (c *fakeMesh) Initialize() error { c.s.add("forward Initialize()"); return errFakeInit }
func (c *fakeMesh) NumLevels() int    { c.s.add("forward NumLevels()"); return 3 }
func (c *fakeMesh) Ratio() int        { c.s.add("forward Ratio()"); return 2 }
func (c *fakeMesh) LevelPatchCount(level int) int {
	c.s.add("forward LevelPatchCount(%d)", level)
	return 10 + level
}
func (c *fakeMesh) LocalPatches(level int) []amr.PatchRef {
	c.s.add("forward LocalPatches(%d)", level)
	return make([]amr.PatchRef, level)
}
func (c *fakeMesh) CellSize(level int) (float64, float64) {
	c.s.add("forward CellSize(%d)", level)
	return 0.25, 0.5
}
func (c *fakeMesh) GhostUpdate(level int) { c.s.add("forward GhostUpdate(%d)", level) }
func (c *fakeMesh) Regrid()               { c.s.add("forward Regrid()") }
func (c *fakeMesh) LoadBalance() int      { c.s.add("forward LoadBalance()"); return 4 }
func (c *fakeMesh) Restrict(fineLevel int) {
	c.s.add("forward Restrict(%d)", fineLevel)
}
func (c *fakeMesh) GlobalMaxWaveSpeed() float64 { c.s.add("forward GlobalMaxWaveSpeed()"); return 7.5 }
func (c *fakeMesh) Imbalance() float64          { c.s.add("forward Imbalance()"); return 1.25 }

// TestProxyMonitoringStream pins the proxy protocol method by method. A
// monitored method hands its marked-up parameters to its record's Start,
// which stores them and starts the timer, charges one call, forwards, then
// stops the record, in that order; its record was opened with the call
// edge, proxy to provided port, that names it. An unmonitored method only
// forwards; both return what the target returned.
func TestProxyMonitoringStream(t *testing.T) {
	onOneRank(t, func(f *cca.Framework, r *mpi.Rank) error {
		s := &callStream{proc: r.Proc}
		t0 := r.Proc.Now()
		r.Proc.ChargeCall()
		s.call = r.Proc.Now() - t0

		mon := newStreamMonitor(s)
		f.RegisterClass("StreamMonitor", func() cca.Component { return mon })
		f.RegisterClass("FakeStates", func() cca.Component { return &fakeStates{s} })
		f.RegisterClass("FakeFlux", func() cca.Component { return &fakeFlux{s} })
		f.RegisterClass("FakeMesh", func() cca.Component { return &fakeMesh{s} })
		f.RegisterClass("StatesProxy", NewStatesProxy)
		f.RegisterClass("FluxProxy", NewFluxProxy)
		f.RegisterClass("MeshProxy", NewMeshProxy)
		if err := f.RunScript(`
instantiate StreamMonitor mon0
instantiate FakeStates states0
instantiate FakeFlux flux0
instantiate FakeMesh mesh0
instantiate StatesProxy sc_proxy
instantiate FluxProxy g_proxy
instantiate MeshProxy icc_proxy
connect sc_proxy target states0 states
connect sc_proxy monitor mon0 monitor
connect g_proxy target flux0 flux
connect g_proxy monitor mon0 monitor
connect icc_proxy target mesh0 mesh
connect icc_proxy monitor mon0 monitor
`); err != nil {
			return err
		}
		var ports []cca.Port
		for _, ip := range [][2]string{{"sc_proxy", "states"}, {"g_proxy", "flux"}, {"icc_proxy", "mesh"}} {
			p, err := f.LookupProvides(ip[0], ip[1])
			if err != nil {
				return err
			}
			ports = append(ports, p)
		}
		sp, fp, mp := ports[0].(StatesPort), ports[1].(FluxPort), ports[2].(MeshPort)

		b := euler.NewBlock(r.Proc, 8, 4, 2)
		qL := euler.NewEdgeField(r.Proc, 8, 4, euler.Y)
		qR := euler.NewEdgeField(r.Proc, 8, 4, euler.Y)
		fl := euler.NewEdgeField(r.Proc, 8, 4, euler.Y)
		s.take()

		// A call's stream, and for a monitored one the edge of its record.
		type stream struct {
			events []string
			edge   core.CallEdge
		}
		monitored := func(inst, callee, record, params, forward string) stream {
			name := inst + "::" + record + "()"
			return stream{[]string{
				"start " + name + " " + params,
				"charge",
				"forward " + forward,
				"stop " + name,
			}, core.CallEdge{Caller: inst, Callee: callee, Method: record}}
		}
		forwarded := func(forward string) stream { return stream{events: []string{"forward " + forward}} }
		cases := []struct {
			port, method string
			call         func() string // invokes the method once; its results, printed
			want         stream
			result       string
		}{
			{"StatesPort", "Compute", func() string { sp.Compute(b, euler.Y, qL, qR); return "" },
				monitored("sc_proxy", "states", "compute", "[{Q 32} {mode 1}]", "Compute(8x4, 1)"), ""},
			{"FluxPort", "Compute", func() string { return fmt.Sprint(fp.Compute(qL, qR, fl)) },
				monitored("g_proxy", "flux", "compute", "[{Q 32} {mode 1}]", "Compute(8x4, 1)"), "7"},
			{"MeshPort", "GhostUpdate", func() string { mp.GhostUpdate(2); return "" },
				monitored("icc_proxy", "mesh", "ghostUpdate", "[{level 2}]", "GhostUpdate(2)"), ""},
			{"MeshPort", "Restrict", func() string { mp.Restrict(1); return "" },
				monitored("icc_proxy", "mesh", "restrict", "[{level 1}]", "Restrict(1)"), ""},
			{"MeshPort", "Regrid", func() string { mp.Regrid(); return "" },
				monitored("icc_proxy", "mesh", "prolong", "[]", "Regrid()"), ""},
			{"MeshPort", "LoadBalance", func() string { return fmt.Sprint(mp.LoadBalance()) },
				monitored("icc_proxy", "mesh", "loadBalance", "[]", "LoadBalance()"), "4"},
			{"MeshPort", "Initialize", func() string { return fmt.Sprint(mp.Initialize() == errFakeInit) },
				forwarded("Initialize()"), "true"},
			{"MeshPort", "NumLevels", func() string { return fmt.Sprint(mp.NumLevels()) },
				forwarded("NumLevels()"), "3"},
			{"MeshPort", "Ratio", func() string { return fmt.Sprint(mp.Ratio()) },
				forwarded("Ratio()"), "2"},
			{"MeshPort", "LevelPatchCount", func() string { return fmt.Sprint(mp.LevelPatchCount(1)) },
				forwarded("LevelPatchCount(1)"), "11"},
			{"MeshPort", "LocalPatches", func() string { return fmt.Sprint(len(mp.LocalPatches(2))) },
				forwarded("LocalPatches(2)"), "2"},
			{"MeshPort", "CellSize", func() string { return fmt.Sprint(mp.CellSize(1)) },
				forwarded("CellSize(1)"), "0.25 0.5"},
			{"MeshPort", "GlobalMaxWaveSpeed", func() string { return fmt.Sprint(mp.GlobalMaxWaveSpeed()) },
				forwarded("GlobalMaxWaveSpeed()"), "7.5"},
			{"MeshPort", "Imbalance", func() string { return fmt.Sprint(mp.Imbalance()) },
				forwarded("Imbalance()"), "1.25"},
		}

		// Every method of every proxied port is exercised.
		covered := map[string]bool{}
		for _, c := range cases {
			covered[c.port+"."+c.method] = true
		}
		for _, it := range []reflect.Type{
			reflect.TypeFor[StatesPort](), reflect.TypeFor[FluxPort](), reflect.TypeFor[MeshPort](),
		} {
			for i := range it.NumMethod() {
				if m := it.Name() + "." + it.Method(i).Name; !covered[m] {
					t.Errorf("%s has no case", m)
				}
			}
		}

		for _, c := range cases {
			got := c.call()
			if events := s.take(); !reflect.DeepEqual(events, c.want.events) {
				t.Errorf("%s.%s stream:\n got %q\nwant %q", c.port, c.method, events, c.want.events)
			}
			if e := c.want.edge; e != (core.CallEdge{}) {
				if rec := mon.Record(e.Caller + "::" + e.Method + "()"); rec == nil || rec.Edge != e {
					t.Errorf("%s.%s: its record %+v was not opened with edge %+v", c.port, c.method, rec, e)
				}
			}
			if got != c.result {
				t.Errorf("%s.%s returned %q, want %q", c.port, c.method, got, c.result)
			}
		}
		return nil
	})
}

// nopStates is a StatesPort that does nothing, so a call through its proxy
// measures the monitor alone.
type nopStates struct{}

func (c *nopStates) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(c, "states", TypeStatesPort)
}

func (c *nopStates) Compute(*euler.Block, euler.Dir, *euler.EdgeField, *euler.EdgeField) {}

// TestMonitoredCallAllocatesNothing: once its proxy has wired, a monitored
// call through the real TauMeasurement and Mastermind builds no name, no
// parameter list and no snapshot. Only the record's columns grow, by
// doubling, which amortizes to less than one allocation per call.
func TestMonitoredCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	onOneRank(t, func(f *cca.Framework, r *mpi.Rank) error {
		mm := &Mastermind{}
		f.RegisterClass("TauMeasurement", NewTauMeasurement)
		f.RegisterClass("Mastermind", func() cca.Component { return mm })
		f.RegisterClass("NopStates", func() cca.Component { return &nopStates{} })
		f.RegisterClass("StatesProxy", NewStatesProxy)
		if err := f.RunScript(`
instantiate TauMeasurement tau0
instantiate Mastermind mastermind0
instantiate NopStates states0
instantiate StatesProxy sc_proxy
connect mastermind0 measurement tau0 measurement
connect sc_proxy target states0 states
connect sc_proxy monitor mastermind0 monitor
`); err != nil {
			return err
		}
		p, err := f.LookupProvides("sc_proxy", "states")
		if err != nil {
			return err
		}
		sp := p.(StatesPort)
		b := euler.NewBlock(r.Proc, 8, 4, 2)
		qL := euler.NewEdgeField(r.Proc, 8, 4, euler.X)
		qR := euler.NewEdgeField(r.Proc, 8, 4, euler.X)
		call := func() { sp.Compute(b, euler.X, qL, qR) }
		call()
		const runs = 1000
		if n := testing.AllocsPerRun(runs, call); n != 0 {
			t.Errorf("a monitored call allocates %v times", n)
		}
		if n := mm.Core().Record("sc_proxy::compute()").Len(); n != runs+2 {
			t.Errorf("the record holds %d invocations, want %d", n, runs+2)
		}
		return nil
	})
}
