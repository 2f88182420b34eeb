package cca

import (
	"strings"
	"testing"

	"repro/internal/mpi"
)

// adderPort is a toy port for wiring tests.
type adderPort interface {
	Add(a, b int) int
}

// adder provides adderPort.
type adder struct{ calls int }

func (a *adder) SetServices(svc Services) error {
	return svc.AddProvidesPort(a, "sum", "AdderPort")
}
func (a *adder) Add(x, y int) int { a.calls++; return x + y }

// client uses adderPort and provides a GoPort.
type client struct {
	svc    Services
	result int
}

func (c *client) SetServices(svc Services) error {
	c.svc = svc
	if err := svc.RegisterUsesPort("adder", "AdderPort"); err != nil {
		return err
	}
	return svc.AddProvidesPort(c, "go", "GoPort")
}

func (c *client) Go() error {
	p, err := c.svc.GetPort("adder")
	if err != nil {
		return err
	}
	c.result = p.(adderPort).Add(19, 23)
	return c.svc.ReleasePort("adder")
}

func newTestFramework() (*Framework, *adder, *client) {
	f := NewFramework(nil)
	a := &adder{}
	c := &client{}
	f.RegisterClass("Adder", func() Component { return a })
	f.RegisterClass("Client", func() Component { return c })
	return f, a, c
}

func TestInstantiateAndConnectAndGo(t *testing.T) {
	f, a, c := newTestFramework()
	if err := f.Instantiate("adder0", "Adder"); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("client0", "Client"); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("client0", "adder", "adder0", "sum"); err != nil {
		t.Fatal(err)
	}
	if err := f.Go("client0", "go"); err != nil {
		t.Fatal(err)
	}
	if c.result != 42 || a.calls != 1 {
		t.Errorf("result=%d calls=%d, want 42/1", c.result, a.calls)
	}
}

func TestInstantiateUnknownClass(t *testing.T) {
	f, _, _ := newTestFramework()
	if err := f.Instantiate("x", "NoSuchClass"); err == nil {
		t.Fatal("expected error for unknown class")
	}
}

func TestDuplicateInstance(t *testing.T) {
	f, _, _ := newTestFramework()
	if err := f.Instantiate("a", "Adder"); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("a", "Adder"); err == nil {
		t.Fatal("expected duplicate-instance error")
	}
}

func TestConnectTypeMismatch(t *testing.T) {
	f, _, _ := newTestFramework()
	badClient := &struct {
		Component
	}{}
	_ = badClient
	f.RegisterClass("Bad", func() Component { return badComponent{} })
	if err := f.Instantiate("adder0", "Adder"); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("bad0", "Bad"); err != nil {
		t.Fatal(err)
	}
	err := f.Connect("bad0", "adder", "adder0", "sum")
	if err == nil || !strings.Contains(err.Error(), "type mismatch") {
		t.Fatalf("expected type mismatch, got %v", err)
	}
}

// badComponent registers a uses port with the wrong type.
type badComponent struct{}

func (badComponent) SetServices(svc Services) error {
	return svc.RegisterUsesPort("adder", "WrongType")
}

func TestConnectUnknownEndpoints(t *testing.T) {
	f, _, _ := newTestFramework()
	if err := f.Instantiate("adder0", "Adder"); err != nil {
		t.Fatal(err)
	}
	cases := [][4]string{
		{"ghost", "adder", "adder0", "sum"},
		{"adder0", "nope", "adder0", "sum"},
		{"adder0", "adder", "ghost", "sum"},
	}
	for _, c := range cases {
		if err := f.Connect(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("Connect(%v) should fail", c)
		}
	}
}

func TestDoubleConnectRejected(t *testing.T) {
	f, _, _ := newTestFramework()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Instantiate("adder0", "Adder"))
	must(f.Instantiate("client0", "Client"))
	must(f.Connect("client0", "adder", "adder0", "sum"))
	if err := f.Connect("client0", "adder", "adder0", "sum"); err == nil {
		t.Fatal("double connect should fail")
	}
}

func TestGetPortUnconnected(t *testing.T) {
	f, _, c := newTestFramework()
	if err := f.Instantiate("client0", "Client"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.svc.GetPort("adder"); err == nil {
		t.Fatal("GetPort on unconnected uses port should fail")
	}
	if _, err := c.svc.GetPort("nonexistent"); err == nil {
		t.Fatal("GetPort on unknown port should fail")
	}
}

func TestGoOnNonGoPort(t *testing.T) {
	f, _, _ := newTestFramework()
	if err := f.Instantiate("adder0", "Adder"); err != nil {
		t.Fatal(err)
	}
	if err := f.Go("adder0", "sum"); err == nil || !strings.Contains(err.Error(), "GoPort") {
		t.Fatalf("expected GoPort error, got %v", err)
	}
}

func TestRunScript(t *testing.T) {
	f, _, c := newTestFramework()
	script := `
# assemble the toy application
instantiate Adder adder0
instantiate Client client0
connect client0 adder adder0 sum   # wire them
go client0 go
`
	if err := f.RunScript(script); err != nil {
		t.Fatal(err)
	}
	if c.result != 42 {
		t.Errorf("script run result = %d, want 42", c.result)
	}
	if len(f.order) != 2 || f.order[0] != "adder0" {
		t.Errorf("instances = %v", f.order)
	}
	if inst := f.instances["adder0"]; inst == nil || inst.class != "Adder" {
		t.Errorf("adder0 = %+v, want an Adder", inst)
	}
}

func TestRunScriptErrors(t *testing.T) {
	cases := []string{
		"frobnicate x y",
		"instantiate OnlyOneArg",
		"connect a b c",
		"go onlyname",
		"instantiate NoSuchClass inst",
	}
	for _, s := range cases {
		f, _, _ := newTestFramework()
		if err := f.RunScript(s); err == nil {
			t.Errorf("script %q should fail", s)
		}
	}
}

func TestConnectionsRecorded(t *testing.T) {
	f, _, _ := newTestFramework()
	_ = f.Instantiate("adder0", "Adder")
	_ = f.Instantiate("client0", "Client")
	_ = f.Connect("client0", "adder", "adder0", "sum")
	conns := f.connections
	if len(conns) != 1 {
		t.Fatalf("connections = %d, want 1", len(conns))
	}
	want := Connection{User: "client0", UsesPort: "adder", Provider: "adder0", ProvidesPort: "sum", PortType: "AdderPort"}
	if conns[0] != want {
		t.Errorf("connection = %+v, want %+v", conns[0], want)
	}
}

func TestWriteDOT(t *testing.T) {
	f, _, _ := newTestFramework()
	_ = f.Instantiate("adder0", "Adder")
	_ = f.Instantiate("client0", "Client")
	_ = f.Connect("client0", "adder", "adder0", "sum")
	var sb strings.Builder
	if err := f.WriteDOT(&sb, "fig2"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", `"client0" -> "adder0"`, "Adder", "Client"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSCMDBuildsPerRankFrameworks(t *testing.T) {
	cfg := mpi.DefaultConfig()
	cfg.Procs = 3
	w := mpi.NewWorld(cfg)
	var ranksSeen [3]bool
	err := RunSCMD(w, func(f *Framework, r *mpi.Rank) error {
		if f.Rank() != r {
			t.Error("framework not bound to its rank")
		}
		ranksSeen[r.Rank()] = true
		f.RegisterClass("Adder", func() Component { return &adder{} })
		return f.Instantiate("a", "Adder")
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seen := range ranksSeen {
		if !seen {
			t.Errorf("rank %d never built a framework", i)
		}
	}
}

func TestRunSCMDSetupErrorPropagates(t *testing.T) {
	cfg := mpi.DefaultConfig()
	cfg.Procs = 2
	w := mpi.NewWorld(cfg)
	err := RunSCMD(w, func(f *Framework, r *mpi.Rank) error {
		return f.Instantiate("x", "MissingClass")
	})
	if err == nil || !strings.Contains(err.Error(), "MissingClass") {
		t.Fatalf("setup error not propagated: %v", err)
	}
}

func TestSetServicesFailureRollsBack(t *testing.T) {
	f := NewFramework(nil)
	f.RegisterClass("Bad", func() Component { return failingComponent{} })
	if err := f.Instantiate("b", "Bad"); err == nil {
		t.Fatal("expected SetServices failure")
	}
	if len(f.order) != 0 || len(f.instances) != 0 {
		t.Errorf("failed instance left behind: %v", f.order)
	}
}

type failingComponent struct{}

func (failingComponent) SetServices(Services) error {
	return errFail
}

var errFail = &scriptError{"setServices failed"}

type scriptError struct{ s string }

func (e *scriptError) Error() string { return e.s }
