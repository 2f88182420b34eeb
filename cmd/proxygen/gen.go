package main

import (
	"fmt"
	"strings"
	"text/template"
)

// Spec describes one proxy component to generate.
type Spec struct {
	// Package is the target Go package name.
	Package string `json:"package"`
	// Name is the proxy type name (e.g. "StatesProxy").
	Name string `json:"name"`
	// PortType is the CCA port type identifier used in type checking.
	PortType string `json:"portType"`
	// PortInterface is the Go interface the proxy forwards to
	// (qualified, e.g. "components.StatesPort").
	PortInterface string `json:"portInterface"`
	// ProvidesName is the name the proxy provides its port under.
	ProvidesName string `json:"providesName"`
	// Imports are extra import paths the signatures need.
	Imports []string `json:"imports"`
	// Methods are the forwarded methods.
	Methods []MethodSpec `json:"methods"`
}

// MethodSpec is one forwarded method with its performance mark-up.
type MethodSpec struct {
	// Name is the method name.
	Name string `json:"name"`
	// Signature is the parameter list (names and types, no parens).
	Signature string `json:"signature"`
	// Args forwards the parameters (comma-separated names).
	Args string `json:"args"`
	// Results is the result list ("" for none, e.g. "int").
	Results string `json:"results"`
	// Params is the paper's mark-up: the performance-relevant inputs to
	// extract and hand to the Mastermind before forwarding.
	Params []ParamSpec `json:"params"`
}

// ParamSpec maps a recorded parameter name to the Go expression that
// extracts it from the method's arguments.
type ParamSpec struct {
	Name string `json:"name"`
	Expr string `json:"expr"`
}

// Validate checks the specification for the mistakes a generator cannot
// paper over.
func (s *Spec) Validate() error {
	switch {
	case s.Package == "":
		return fmt.Errorf("proxygen: spec needs a package name")
	case s.Name == "":
		return fmt.Errorf("proxygen: spec needs a proxy name")
	case s.PortType == "" || s.PortInterface == "" || s.ProvidesName == "":
		return fmt.Errorf("proxygen: spec needs portType, portInterface and providesName")
	case len(s.Methods) == 0:
		return fmt.Errorf("proxygen: spec needs at least one method")
	}
	for i, m := range s.Methods {
		if m.Name == "" {
			return fmt.Errorf("proxygen: method %d has no name", i)
		}
	}
	return nil
}

// proxyTemplate renders the proxy in the same shape as the repository's
// handwritten proxies (internal/components/pmm.go).
var proxyTemplate = template.Must(template.New("proxy").Funcs(template.FuncMap{
	"lowerFirst": func(s string) string {
		if s == "" {
			return s
		}
		return strings.ToLower(s[:1]) + s[1:]
	},
}).Parse(`// Code generated by proxygen. DO NOT EDIT.

package {{.Package}}

import (
	"repro/internal/cca"
	"repro/internal/core"
{{- range .Imports}}
	"{{.}}"
{{- end}}
)

// {{.Name}} intercepts {{.PortType}} invocations: it extracts the
// performance-relevant parameters, notifies the Mastermind, and forwards
// the call to the real component.
type {{.Name}} struct {
	svc    cca.Services
	target {{.PortInterface}}
	mon    core.MonitorPort
}

// New{{.Name}} constructs the proxy.
func New{{.Name}}() cca.Component { return &{{.Name}}{} }

// SetServices mirrors the real component's port plus the monitor port.
func (p *{{.Name}}) SetServices(svc cca.Services) error {
	p.svc = svc
	if err := svc.RegisterUsesPort("target", "{{.PortType}}"); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("monitor", "MonitorPort"); err != nil {
		return err
	}
	return svc.AddProvidesPort(p, "{{.ProvidesName}}", "{{.PortType}}")
}

// wire lazily resolves the proxy's connections.
func (p *{{.Name}}) wire() {
	if p.target == nil {
		p.target = cca.Use[{{.PortInterface}}](p.svc, "target")
		p.mon = cca.Use[core.MonitorPort](p.svc, "monitor")
	}
}
{{range .Methods}}
// {{.Name}} forwards to the monitored component.
func (p *{{$.Name}}) {{.Name}}({{.Signature}}) {{.Results}} {
	p.wire()
	name := p.svc.InstanceName() + "::{{lowerFirst .Name}}()"
	params := []core.Param{
{{- range .Params}}
		{Name: "{{.Name}}", Value: {{.Expr}}},
{{- end}}
	}
	p.mon.StartMonitoring(name, params)
	p.svc.Context().Proc.ChargeCall()
	{{if .Results}}out := {{end}}p.target.{{.Name}}({{.Args}})
	p.mon.StopMonitoring(name)
	p.mon.RecordCall(p.svc.InstanceName(), "{{$.ProvidesName}}", "{{lowerFirst .Name}}")
	{{- if .Results}}
	return out
	{{- end}}
}
{{end}}`))

// Generate renders the proxy source for a specification.
func Generate(s *Spec) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := proxyTemplate.Execute(&sb, s); err != nil {
		return "", fmt.Errorf("proxygen: rendering: %w", err)
	}
	return sb.String(), nil
}
