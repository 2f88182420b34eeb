package cca

import (
	"errors"
	"fmt"
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

// onOneRank runs body on the framework of the only rank of a one-rank world,
// with the Adder and Client classes registered: RunSCMD is the only way to
// get a framework. body reports a failed step by returning an error, which
// fails the test.
func onOneRank(t *testing.T, body func(f *Framework, a *adder, c *client) error) {
	t.Helper()
	cfg := mpi.DefaultConfig()
	cfg.Procs = 1
	err := RunSCMD(mpi.NewWorld(cfg), func(f *Framework, _ *mpi.Rank) error {
		a, c := &adder{}, &client{}
		f.RegisterClass("Adder", func() Component { return a })
		f.RegisterClass("Client", func() Component { return c })
		return body(f, a, c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateAndConnectAndGo(t *testing.T) {
	onOneRank(t, func(f *Framework, a *adder, c *client) error {
		if err := f.Instantiate("adder0", "Adder"); err != nil {
			return err
		}
		if err := f.Instantiate("client0", "Client"); err != nil {
			return err
		}
		if err := f.Connect("client0", "adder", "adder0", "sum"); err != nil {
			return err
		}
		if err := f.Go("client0", "go"); err != nil {
			return err
		}
		if c.result != 42 || a.calls != 1 {
			t.Errorf("result=%d calls=%d, want 42/1", c.result, a.calls)
		}
		return nil
	})
}

func TestInstantiateUnknownClass(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		if err := f.Instantiate("x", "NoSuchClass"); err == nil {
			return errors.New("expected error for unknown class")
		}
		return nil
	})
}

func TestDuplicateInstance(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		if err := f.Instantiate("a", "Adder"); err != nil {
			return err
		}
		if err := f.Instantiate("a", "Adder"); err == nil {
			return errors.New("expected duplicate-instance error")
		}
		return nil
	})
}

func TestConnectTypeMismatch(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		f.RegisterClass("Bad", func() Component { return badComponent{} })
		if err := f.Instantiate("adder0", "Adder"); err != nil {
			return err
		}
		if err := f.Instantiate("bad0", "Bad"); err != nil {
			return err
		}
		err := f.Connect("bad0", "adder", "adder0", "sum")
		if err == nil || !strings.Contains(err.Error(), "type mismatch") {
			return fmt.Errorf("expected type mismatch, got %v", err)
		}
		return nil
	})
}

// badComponent registers a uses port with the wrong type.
type badComponent struct{}

func (badComponent) SetServices(svc Services) error {
	return svc.RegisterUsesPort("adder", "WrongType")
}

func TestConnectUnknownEndpoints(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		if err := f.Instantiate("adder0", "Adder"); err != nil {
			return err
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
		return nil
	})
}

func TestDoubleConnectRejected(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		if err := f.Instantiate("adder0", "Adder"); err != nil {
			return err
		}
		if err := f.Instantiate("client0", "Client"); err != nil {
			return err
		}
		if err := f.Connect("client0", "adder", "adder0", "sum"); err != nil {
			return err
		}
		if err := f.Connect("client0", "adder", "adder0", "sum"); err == nil {
			return errors.New("double connect should fail")
		}
		return nil
	})
}

func TestGetPortUnconnected(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, c *client) error {
		if err := f.Instantiate("client0", "Client"); err != nil {
			return err
		}
		if _, err := c.svc.GetPort("adder"); err == nil {
			return errors.New("GetPort on unconnected uses port should fail")
		}
		if _, err := c.svc.GetPort("nonexistent"); err == nil {
			return errors.New("GetPort on unknown port should fail")
		}
		return nil
	})
}

// panicOf returns what f panics with, or "" if it returns.
func panicOf(f func()) (msg string) {
	defer func() {
		if e := recover(); e != nil {
			msg = fmt.Sprint(e)
		}
	}()
	f()
	return ""
}

// TestUse holds the one port lookup to its contract: the connected port as
// its Go type, and a panic naming the instance and the port when the port is
// not connected or its provider is not of that type.
func TestUse(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, c *client) error {
		if err := f.Instantiate("adder0", "Adder"); err != nil {
			return err
		}
		if err := f.Instantiate("client0", "Client"); err != nil {
			return err
		}
		names := func(msg string) bool {
			return strings.Contains(msg, "client0") && strings.Contains(msg, `"adder"`)
		}
		if msg := panicOf(func() { Use[adderPort](c.svc, "adder") }); !names(msg) {
			t.Errorf("Use on an unconnected port panicked with %q", msg)
		}
		if err := f.Connect("client0", "adder", "adder0", "sum"); err != nil {
			return err
		}
		if got := Use[adderPort](c.svc, "adder").Add(2, 3); got != 5 {
			t.Errorf("Use returned a port adding to %d, want 5", got)
		}
		if msg := panicOf(func() { Use[GoPort](c.svc, "adder") }); !names(msg) {
			t.Errorf("Use as the wrong type panicked with %q", msg)
		}
		return nil
	})
}

func TestGoOnNonGoPort(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		if err := f.Instantiate("adder0", "Adder"); err != nil {
			return err
		}
		if err := f.Go("adder0", "sum"); err == nil || !strings.Contains(err.Error(), "GoPort") {
			return fmt.Errorf("expected GoPort error, got %v", err)
		}
		return nil
	})
}

func TestRunScript(t *testing.T) {
	script := `
# assemble the toy application
instantiate Adder adder0
instantiate Client client0
connect client0 adder adder0 sum   # wire them
go client0 go
`
	onOneRank(t, func(f *Framework, _ *adder, c *client) error {
		if err := f.RunScript(script); err != nil {
			return err
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
		return nil
	})
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
		onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
			if err := f.RunScript(s); err == nil {
				t.Errorf("script %q should fail", s)
			}
			return nil
		})
	}
}

func TestConnectionsRecorded(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		_ = f.Instantiate("adder0", "Adder")
		_ = f.Instantiate("client0", "Client")
		_ = f.Connect("client0", "adder", "adder0", "sum")
		conns := f.connections
		if len(conns) != 1 {
			return fmt.Errorf("connections = %d, want 1", len(conns))
		}
		want := Connection{User: "client0", UsesPort: "adder", Provider: "adder0", ProvidesPort: "sum", PortType: "AdderPort"}
		if conns[0] != want {
			t.Errorf("connection = %+v, want %+v", conns[0], want)
		}
		return nil
	})
}

func TestWriteDOT(t *testing.T) {
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		_ = f.Instantiate("adder0", "Adder")
		_ = f.Instantiate("client0", "Client")
		_ = f.Connect("client0", "adder", "adder0", "sum")
		var sb strings.Builder
		if err := f.WriteDOT(&sb, "fig2"); err != nil {
			return err
		}
		out := sb.String()
		for _, want := range []string{"digraph", `"client0" -> "adder0"`, "Adder", "Client"} {
			if !strings.Contains(out, want) {
				t.Errorf("DOT output missing %q:\n%s", want, out)
			}
		}
		return nil
	})
}

func TestRunSCMDBuildsPerRankFrameworks(t *testing.T) {
	cfg := mpi.DefaultConfig()
	cfg.Procs = 3
	w := mpi.NewWorld(cfg)
	var ranksSeen [3]bool
	err := RunSCMD(w, func(f *Framework, r *mpi.Rank) error {
		c := &client{}
		f.RegisterClass("Client", func() Component { return c })
		if err := f.Instantiate("c", "Client"); err != nil {
			return err
		}
		if c.svc.Context() != r {
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
	onOneRank(t, func(f *Framework, _ *adder, _ *client) error {
		f.RegisterClass("Bad", func() Component { return failingComponent{} })
		if err := f.Instantiate("b", "Bad"); err == nil {
			return errors.New("expected SetServices failure")
		}
		if len(f.order) != 0 || len(f.instances) != 0 {
			t.Errorf("failed instance left behind: %v", f.order)
		}
		return nil
	})
}

type failingComponent struct{}

func (failingComponent) SetServices(Services) error {
	return errFail
}

var errFail = &scriptError{"setServices failed"}

type scriptError struct{ s string }

func (e *scriptError) Error() string { return e.s }
