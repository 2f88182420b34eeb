// Package assembly implements the paper's composite performance model
// (Fig. 10 and Section 6): the application's "dual", a directed graph built
// from the framework's wiring diagram plus the Mastermind's recorded call
// trace, with edge weights equal to invocation counts and vertex weights
// given by the per-component performance models. The composite model serves
// as the cost function for selecting among multiple implementations of a
// functionality (the ICENI-style optimizer of the paper's Section 2), with
// a Quality-of-Service constraint reflecting the EFMFlux-vs-GodunovFlux
// accuracy/performance trade the paper discusses.
package assembly

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// Vertex is one component in the dual, weighted by its predicted compute
// and communication time models (functions of the workload parameter Q).
type Vertex struct {
	Name string
	// Compute predicts compute microseconds per invocation at workload Q.
	Compute perfmodel.Model
	// Comm predicts communication microseconds per invocation (nil for
	// components that never touch MPI).
	Comm perfmodel.Model
	// Q is the workload parameter this component is invoked with.
	Q float64
}

// PredictPerCall returns the vertex's predicted microseconds per
// invocation. Fitted models extrapolated below their sampled range can go
// negative (a linear fit's intercept); predictions clamp at zero.
func (v *Vertex) PredictPerCall() float64 {
	t := 0.0
	if v.Compute != nil {
		t += math.Max(0, v.Compute.Predict(v.Q))
	}
	if v.Comm != nil {
		t += math.Max(0, v.Comm.Predict(v.Q))
	}
	return t
}

// Edge is a caller→callee relationship weighted by invocation count.
type Edge struct {
	From, To string
	Method   string
	Calls    int
}

// Dual is the application's directed performance graph.
type Dual struct {
	vertices map[string]*Vertex
	order    []string
	edges    []Edge
}

// NewDual creates an empty dual.
func NewDual() *Dual {
	return &Dual{vertices: make(map[string]*Vertex)}
}

// AddVertex inserts (or replaces) a component vertex.
func (d *Dual) AddVertex(v Vertex) {
	if _, exists := d.vertices[v.Name]; !exists {
		d.order = append(d.order, v.Name)
	}
	cp := v
	d.vertices[v.Name] = &cp
}

// Vertex returns the named vertex, or nil.
func (d *Dual) Vertex(name string) *Vertex { return d.vertices[name] }

// AddEdge inserts a weighted call edge; unknown endpoints are created as
// model-less vertices.
func (d *Dual) AddEdge(from, to, method string, calls int) {
	for _, n := range []string{from, to} {
		if _, ok := d.vertices[n]; !ok {
			d.AddVertex(Vertex{Name: n})
		}
	}
	d.edges = append(d.edges, Edge{From: from, To: to, Method: method, Calls: calls})
}

// Edges returns the call edges.
func (d *Dual) Edges() []Edge {
	out := make([]Edge, len(d.edges))
	copy(out, d.edges)
	return out
}

// FromTrace builds the dual from a Mastermind call trace: each recorded
// caller→callee edge becomes a weighted edge (the paper's "wiring diagram
// plus call trace" construction). Vertex models are attached afterwards
// with AddVertex.
func FromTrace(edges map[core.CallEdge]int) *Dual {
	d := NewDual()
	keys := make([]core.CallEdge, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		return a.Method < b.Method
	})
	for _, e := range keys {
		d.AddEdge(e.Caller, e.Callee, e.Method, edges[e])
	}
	return d
}

// vertexCalls sums the incoming invocation counts per vertex; vertices with
// no incoming edge (drivers) count once.
func (d *Dual) vertexCalls() map[string]int {
	calls := map[string]int{}
	hasIncoming := map[string]bool{}
	for _, e := range d.edges {
		calls[e.To] += e.Calls
		hasIncoming[e.To] = true
	}
	for _, name := range d.order {
		if !hasIncoming[name] {
			calls[name] = 1
		}
	}
	return calls
}

// Contribution returns each vertex's predicted share of the composite cost.
func (d *Dual) Contribution() map[string]float64 {
	calls := d.vertexCalls()
	out := map[string]float64{}
	for name, v := range d.vertices {
		out[name] = float64(calls[name]) * v.PredictPerCall()
	}
	return out
}

// Cost evaluates the composite performance model: the sum over vertices of
// invocation count times the per-invocation prediction.
func (d *Dual) Cost() float64 {
	total := 0.0
	for _, c := range d.Contribution() {
		total += c
	}
	return total
}

// WriteDOT renders the dual as a Graphviz digraph with vertex weights
// (predicted compute+comm per call) and edge weights (invocation counts) —
// the lower half of the paper's Fig. 10.
func (d *Dual) WriteDOT(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  node [shape=ellipse];\n", title); err != nil {
		return err
	}
	for _, name := range d.order {
		v := d.vertices[name]
		fmt.Fprintf(w, "  %q [label=\"%s\\n%.0f us/call\"];\n", name, name, v.PredictPerCall())
	}
	for _, e := range d.edges {
		fmt.Fprintf(w, "  %q -> %q [label=\"%s x%d\"];\n", e.From, e.To, e.Method, e.Calls)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Implementation is one candidate realization of a functionality, with its
// fitted performance models and a quality-of-service score (the paper's
// accuracy/robustness axis: GodunovFlux is more accurate, EFMFlux faster).
type Implementation struct {
	Name    string
	Compute perfmodel.Model
	Comm    perfmodel.Model
	QoS     float64
}

// Slot is a choice point in the assembly: a vertex of the dual with
// multiple interchangeable implementations.
type Slot struct {
	// Vertex names the dual vertex the chosen implementation replaces.
	Vertex string
	// Impls lists the candidates (the paper's C_i implementations).
	Impls []Implementation
}

// Choice maps slot vertex names to the selected implementation names.
type Choice map[string]string

// Optimizer enumerates the product of implementation choices (the paper's
// Π C_i space) and evaluates the composite model for each, honoring a
// minimum QoS.
type Optimizer struct {
	Dual   *Dual
	Slots  []Slot
	MinQoS float64
}

// Evaluate returns the composite cost under a specific choice. Unknown
// implementation names panic: the optimizer is driven by its own
// enumeration.
func (o *Optimizer) Evaluate(choice Choice) float64 {
	trial := NewDual()
	for _, name := range o.Dual.order {
		v := *o.Dual.vertices[name]
		if implName, ok := choice[name]; ok {
			found := false
			for _, s := range o.Slots {
				if s.Vertex != name {
					continue
				}
				for _, impl := range s.Impls {
					if impl.Name == implName {
						v.Compute, v.Comm = impl.Compute, impl.Comm
						found = true
					}
				}
			}
			if !found {
				panic(fmt.Sprintf("assembly: unknown implementation %q for slot %q", implName, name))
			}
		}
		trial.AddVertex(v)
	}
	for _, e := range o.Dual.edges {
		trial.AddEdge(e.From, e.To, e.Method, e.Calls)
	}
	return trial.Cost()
}

// Result describes one evaluated assembly.
type Result struct {
	Choice Choice
	Cost   float64
	MinQoS float64
}

// Optimize enumerates every admissible assembly and returns the cheapest
// plus the full ranking (cheapest first). Assemblies containing an
// implementation below MinQoS are excluded.
func (o *Optimizer) Optimize() (best Result, ranking []Result, err error) {
	if len(o.Slots) == 0 {
		return Result{Choice: Choice{}, Cost: o.Dual.Cost()}, nil, nil
	}
	var all []Result
	choice := Choice{}
	var walk func(slot int) error
	walk = func(slot int) error {
		if slot == len(o.Slots) {
			minQ := math.Inf(1)
			for _, s := range o.Slots {
				for _, impl := range s.Impls {
					if impl.Name == choice[s.Vertex] && impl.QoS < minQ {
						minQ = impl.QoS
					}
				}
			}
			cp := Choice{}
			for k, v := range choice {
				cp[k] = v
			}
			all = append(all, Result{Choice: cp, Cost: o.Evaluate(cp), MinQoS: minQ})
			return nil
		}
		s := o.Slots[slot]
		if len(s.Impls) == 0 {
			return fmt.Errorf("assembly: slot %q has no implementations", s.Vertex)
		}
		for _, impl := range s.Impls {
			if impl.QoS < o.MinQoS {
				continue
			}
			choice[s.Vertex] = impl.Name
			if err := walk(slot + 1); err != nil {
				return err
			}
		}
		delete(choice, s.Vertex)
		return nil
	}
	if err := walk(0); err != nil {
		return Result{}, nil, err
	}
	if len(all) == 0 {
		return Result{}, nil, fmt.Errorf("assembly: no assembly satisfies MinQoS %.2f", o.MinQoS)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Cost < all[j].Cost })
	return all[0], all, nil
}
