package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func exampleParsed(t *testing.T) *Spec {
	t.Helper()
	var s Spec
	if err := json.Unmarshal([]byte(exampleSpec), &s); err != nil {
		t.Fatalf("example spec does not parse: %v", err)
	}
	return &s
}

func TestGenerateFromExampleSpec(t *testing.T) {
	src, err := Generate(exampleParsed(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package myproxies",
		"type StatesProxy struct",
		"func NewStatesProxy() cca.Component",
		`svc.AddProvidesPort(p, "states", "StatesPort")`,
		`{Name: "Q", Value: float64(b.Cells())}`,
		"p.target = cca.Use[components.StatesPort](p.svc, \"target\")",
		"p.mon = cca.Use[core.MonitorPort](p.svc, \"monitor\")",
		"p.mon.StartMonitoring(name, params)",
		"p.svc.Context().Proc.ChargeCall()",
		"p.target.Compute(b, dir, qL, qR)",
		"p.mon.StopMonitoring(name)",
		"Code generated by proxygen",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestGeneratedSourceIsValidGo(t *testing.T) {
	src, err := Generate(exampleParsed(t))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "proxy.go", src, parser.AllErrors); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
}

func TestGenerateMethodWithResult(t *testing.T) {
	s := exampleParsed(t)
	s.Methods = append(s.Methods, MethodSpec{
		Name:      "Evaluate",
		Signature: "n int",
		Args:      "n",
		Results:   "int",
		Params:    []ParamSpec{{Name: "n", Expr: "float64(n)"}},
	})
	src, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "out := p.target.Evaluate(n)") ||
		!strings.Contains(src, "return out") {
		t.Errorf("result forwarding missing:\n%s", src)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "proxy.go", src, parser.AllErrors); err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
}

func TestGenerateParamlessMethod(t *testing.T) {
	s := exampleParsed(t)
	s.Methods = []MethodSpec{{Name: "Flush", Signature: "", Args: "", Results: ""}}
	src, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "func (p *StatesProxy) Flush()") {
		t.Errorf("paramless method wrong:\n%s", src)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "proxy.go", src, parser.AllErrors); err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Package = "" },
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.PortType = "" },
		func(s *Spec) { s.Methods = nil },
		func(s *Spec) { s.Methods[0].Name = "" },
	}
	for i, mutate := range cases {
		s := exampleParsed(t)
		mutate(s)
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestLowerFirstNaming(t *testing.T) {
	src, err := Generate(exampleParsed(t))
	if err != nil {
		t.Fatal(err)
	}
	// The monitored method name uses the paper's lower-case convention:
	// sc_proxy::compute(), not ::Compute().
	if !strings.Contains(src, `"::compute()"`) {
		t.Errorf("method record name not lower-cased:\n%s", src)
	}
}
