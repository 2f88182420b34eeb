// Package cca implements the slice of the Common Component Architecture
// that the paper's environment (the CCAFFEINE framework, paper §3.1) rests
// on: peer components with ProvidesPorts and UsesPorts, a framework that
// instantiates components and connects ports by handing interface pointers
// from provider to user, an assembly script, and the SCMD parallel model
// (identical frameworks with identical components on every rank,
// communicating via MPI within a component cohort).
//
// As in CCAFFEINE, all components on a rank live in the same address space;
// connecting a port is just moving an interface value, and a method call on
// a UsesPort costs one virtual dispatch (charged to the platform model by
// the proxies in internal/components).
//
// A framework exists only on a rank: RunSCMD is the one way to build one, so
// every component's Services.Context is its rank's execution context and is
// never nil.
package cca

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/mpi"
)

// Port is the marker for CCA port interfaces. Concrete ports are Go
// interfaces; a component provides a port by registering a value that
// implements one.
type Port interface{}

// GoPort is CCAFFEINE's entry-point port: the framework's "go" command
// invokes it on the driver component.
type GoPort interface {
	Go() error
}

// Services is the interface handed to each component at creation
// (setServices in the CCA spec): components use it to register the ports
// they provide and declare the ports they use, then fetch connected ports.
type Services interface {
	// AddProvidesPort registers a port implementation under a port name
	// and type.
	AddProvidesPort(port Port, name, portType string) error
	// RegisterUsesPort declares that this component will use a port of the
	// given type under the given name.
	RegisterUsesPort(name, portType string) error
	// GetPort returns the port connected to the named UsesPort.
	GetPort(name string) (Port, error)
	// ReleasePort releases a port obtained with GetPort.
	ReleasePort(name string) error
	// Context returns the rank's execution context (processor, TAU
	// profile, communicator) — the framework service that replaces
	// CCAFFEINE's environment access. It is never nil.
	Context() *mpi.Rank
	// InstanceName returns the component instance's name in the assembly
	// (CCAFFEINE's getInstanceName), which proxies use to label their
	// monitoring records ("sc_proxy::compute()").
	InstanceName() string
}

// Component is the root abstract class of all CCAFFEINE components: a
// data-less object with one deferred method.
type Component interface {
	// SetServices is invoked by the framework at component creation.
	SetServices(svc Services) error
}

// Factory constructs a fresh component instance.
type Factory func() Component

type providesEntry struct {
	port     Port
	portType string
}

type usesEntry struct {
	portType string
	provider *instance
	portName string
}

type instance struct {
	name     string
	class    string
	comp     Component
	provides map[string]*providesEntry
	uses     map[string]*usesEntry
	fw       *Framework
}

// services is the per-instance Services implementation.
type services struct{ inst *instance }

func (s *services) AddProvidesPort(port Port, name, portType string) error {
	if port == nil {
		return fmt.Errorf("cca: %s: nil provides port %q", s.inst.name, name)
	}
	if _, dup := s.inst.provides[name]; dup {
		return fmt.Errorf("cca: %s: provides port %q already registered", s.inst.name, name)
	}
	s.inst.provides[name] = &providesEntry{port: port, portType: portType}
	return nil
}

func (s *services) RegisterUsesPort(name, portType string) error {
	if _, dup := s.inst.uses[name]; dup {
		return fmt.Errorf("cca: %s: uses port %q already registered", s.inst.name, name)
	}
	s.inst.uses[name] = &usesEntry{portType: portType}
	return nil
}

func (s *services) GetPort(name string) (Port, error) {
	u, ok := s.inst.uses[name]
	if !ok {
		return nil, fmt.Errorf("cca: %s: unknown uses port %q", s.inst.name, name)
	}
	if u.provider == nil {
		return nil, fmt.Errorf("cca: %s: uses port %q is not connected", s.inst.name, name)
	}
	return u.provider.provides[u.portName].port, nil
}

func (s *services) ReleasePort(name string) error {
	if _, ok := s.inst.uses[name]; !ok {
		return fmt.Errorf("cca: %s: unknown uses port %q", s.inst.name, name)
	}
	return nil
}

func (s *services) Context() *mpi.Rank { return s.inst.fw.rank }

func (s *services) InstanceName() string { return s.inst.name }

// Use returns the port connected to svc's uses port name as a T. Components
// call it once the assembly is wired, so an unconnected port, or a provider
// that is not a T, is an assembly bug: Use panics naming the instance and
// the port.
func Use[T any](svc Services, name string) T {
	p, err := svc.GetPort(name)
	if err != nil {
		panic(err)
	}
	t, ok := p.(T)
	if !ok {
		panic(fmt.Sprintf("cca: %s: uses port %q is connected to a %T", svc.InstanceName(), name, p))
	}
	return t
}

// Connection records one port wiring for introspection (the "wiring
// diagram" the Mastermind combines with the call trace, Fig. 10).
type Connection struct {
	User, UsesPort, Provider, ProvidesPort, PortType string
}

// Framework is one rank's CCAFFEINE instance: a registry of component
// classes, the set of live instances, and their connections. Under SCMD
// every rank builds an identical Framework; RunSCMD hands each rank its own.
type Framework struct {
	rank        *mpi.Rank
	classes     map[string]Factory
	instances   map[string]*instance
	order       []string
	connections []Connection
}

// newFramework creates an empty framework bound to rank.
func newFramework(rank *mpi.Rank) *Framework {
	return &Framework{
		rank:      rank,
		classes:   make(map[string]Factory),
		instances: make(map[string]*instance),
	}
}

// RegisterClass adds a component class to the framework's repository.
func (f *Framework) RegisterClass(class string, factory Factory) {
	f.classes[class] = factory
}

// Instantiate creates a named instance of a registered class and invokes
// its SetServices.
func (f *Framework) Instantiate(name, class string) error {
	factory, ok := f.classes[class]
	if !ok {
		return fmt.Errorf("cca: unknown component class %q", class)
	}
	if _, dup := f.instances[name]; dup {
		return fmt.Errorf("cca: instance %q already exists", name)
	}
	inst := &instance{
		name: name, class: class, comp: factory(),
		provides: make(map[string]*providesEntry),
		uses:     make(map[string]*usesEntry),
		fw:       f,
	}
	f.instances[name] = inst
	f.order = append(f.order, name)
	if err := inst.comp.SetServices(&services{inst: inst}); err != nil {
		delete(f.instances, name)
		f.order = f.order[:len(f.order)-1]
		return fmt.Errorf("cca: %s.setServices: %w", name, err)
	}
	return nil
}

// Connect wires user's UsesPort to provider's ProvidesPort. Port types must
// match, mirroring CCAFFEINE's type checking.
func (f *Framework) Connect(user, usesPort, provider, providesPort string) error {
	ui, ok := f.instances[user]
	if !ok {
		return fmt.Errorf("cca: unknown instance %q", user)
	}
	pi, ok := f.instances[provider]
	if !ok {
		return fmt.Errorf("cca: unknown instance %q", provider)
	}
	ue, ok := ui.uses[usesPort]
	if !ok {
		return fmt.Errorf("cca: %s has no uses port %q", user, usesPort)
	}
	pe, ok := pi.provides[providesPort]
	if !ok {
		return fmt.Errorf("cca: %s has no provides port %q", provider, providesPort)
	}
	if ue.portType != pe.portType {
		return fmt.Errorf("cca: port type mismatch connecting %s.%s (%s) to %s.%s (%s)",
			user, usesPort, ue.portType, provider, providesPort, pe.portType)
	}
	if ue.provider != nil {
		return fmt.Errorf("cca: %s.%s already connected", user, usesPort)
	}
	ue.provider = pi
	ue.portName = providesPort
	f.connections = append(f.connections, Connection{
		User: user, UsesPort: usesPort,
		Provider: provider, ProvidesPort: providesPort, PortType: ue.portType,
	})
	return nil
}

// LookupProvides returns the named provides port of an instance, as the
// framework's "go" command needs it.
func (f *Framework) LookupProvides(instName, portName string) (Port, error) {
	inst, ok := f.instances[instName]
	if !ok {
		return nil, fmt.Errorf("cca: unknown instance %q", instName)
	}
	pe, ok := inst.provides[portName]
	if !ok {
		return nil, fmt.Errorf("cca: %s has no provides port %q", instName, portName)
	}
	return pe.port, nil
}

// Go invokes the GoPort named portName on the driver instance — the
// framework "go" command that starts a CCAFFEINE application.
func (f *Framework) Go(instName, portName string) error {
	p, err := f.LookupProvides(instName, portName)
	if err != nil {
		return err
	}
	gp, ok := p.(GoPort)
	if !ok {
		return fmt.Errorf("cca: %s.%s is not a GoPort", instName, portName)
	}
	return gp.Go()
}

// RunScript executes a CCAFFEINE-style assembly script: one command per
// line — "instantiate <class> <name>", "connect <user> <usesPort>
// <provider> <providesPort>", "go <instance> <port>" — with '#' comments.
func (f *Framework) RunScript(script string) error {
	for lineNo, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch fields[0] {
		case "instantiate":
			if len(fields) != 3 {
				err = fmt.Errorf("want: instantiate <class> <name>")
			} else {
				err = f.Instantiate(fields[2], fields[1])
			}
		case "connect":
			if len(fields) != 5 {
				err = fmt.Errorf("want: connect <user> <usesPort> <provider> <providesPort>")
			} else {
				err = f.Connect(fields[1], fields[2], fields[3], fields[4])
			}
		case "go":
			if len(fields) != 3 {
				err = fmt.Errorf("want: go <instance> <port>")
			} else {
				err = f.Go(fields[1], fields[2])
			}
		default:
			err = fmt.Errorf("unknown command %q", fields[0])
		}
		if err != nil {
			return fmt.Errorf("cca: script line %d (%q): %w", lineNo+1, line, err)
		}
	}
	return nil
}

// WriteDOT emits the component assembly as a Graphviz digraph (the Fig. 2
// wiring snapshot). Proxy-to-Mastermind monitoring connections are drawn
// dashed, as in the paper's figure.
func (f *Framework) WriteDOT(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=box];\n", title); err != nil {
		return err
	}
	for _, name := range f.order {
		inst := f.instances[name]
		fmt.Fprintf(w, "  %q [label=\"%s\\n(%s)\"];\n", name, name, inst.class)
	}
	for _, c := range f.connections {
		style := ""
		if c.PortType == "MonitorPort" || c.PortType == "MeasurementPort" {
			style = " [style=dashed, color=blue]"
		}
		fmt.Fprintf(w, "  %q -> %q [label=%q]%s;\n", c.User, c.Provider, c.UsesPort, style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// RunSCMD runs the same assembly on every rank of the world (the SCMD
// model: P identical frameworks, P instances of each component forming a
// cohort). setup builds and runs the assembly for one rank.
func RunSCMD(w *mpi.World, setup func(f *Framework, r *mpi.Rank) error) error {
	return w.Run(func(r *mpi.Rank) {
		f := newFramework(r)
		if err := setup(f, r); err != nil {
			panic(fmt.Sprintf("cca: rank %d setup: %v", r.Rank(), err))
		}
	})
}
