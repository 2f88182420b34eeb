package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// directive marks a port method as monitored.
const directive = "//pmm:monitor"

// proxyHead renders a proxy's type, constructor, SetServices and wire:
// %[1]s is the port interface, %[2]s the proxy, %[3]q its provides name,
// %[4]d its number of monitored methods and %[5]s the statements that open
// their records on the monitor port mon.
const proxyHead = `
// %[2]s is the generated proxy component for %[1]s (paper §4.2).
// Its monitored methods report to their record objects, opened in wire;
// the others only forward.
type %[2]s struct {
	svc    cca.Services
	target %[1]s
	recs   [%[4]d]*core.Record // one per monitored method
}

var _ %[1]s = (*%[2]s)(nil)

// New%[2]s constructs the proxy.
func New%[2]s() cca.Component { return &%[2]s{} }

// SetServices uses the target's port and the monitor port, and provides
// the target's port as %[3]q.
func (p *%[2]s) SetServices(svc cca.Services) error {
	p.svc = svc
	if err := svc.RegisterUsesPort("target", Type%[1]s); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("monitor", TypeMonitorPort); err != nil {
		return err
	}
	return svc.AddProvidesPort(p, %[3]q, Type%[1]s)
}

// wire resolves the proxy's connections and opens its records on first
// use; it returns the target.
func (p *%[2]s) wire() %[1]s {
	if p.target == nil {
		p.target = cca.Use[%[1]s](p.svc, "target")
		mon := cca.Use[core.MonitorPort](p.svc, "monitor")
%[5]s	}
	return p.target
}
`

// monitoredMethod renders a monitored forward from the proxy, method,
// signature, record index, parameter values, forward and return. The
// parameters are evaluated before Start starts the timers: proxy work
// stays outside the measured region (paper §5).
const monitoredMethod = `
func (p *%[1]s) %[2]s%[3]s {
	p.wire()
	p.recs[%[4]d].Start(%[5]s)
	p.svc.Context().Proc.ChargeCall()
	%[6]s
	p.recs[%[4]d].Stop()%[7]s
}
`

type generator struct {
	fset *token.FileSet
	body bytes.Buffer
	// The proxy being rendered: its number of monitored methods so far, the
	// statements opening their records, and its methods, which are
	// rendered before its head.
	nrec           int
	opens, methods strings.Builder
}

func (g *generator) errorf(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", g.fset.Position(pos), fmt.Sprintf(format, args...))
}

// print renders n as Go source.
func (g *generator) print(n ast.Node) string {
	var b strings.Builder
	printer.Fprint(&b, g.fset, n) // a strings.Builder never fails a write
	return b.String()
}

// Generate returns the gofmt-formatted proxies for the port interfaces in
// src, the contents of the file filename. An interface gets a proxy when a
// method of it carries a //pmm:monitor directive. Every error in the
// mark-up is reported at its position in filename.
func Generate(filename string, src []byte) ([]byte, error) {
	g := &generator{fset: token.NewFileSet()}
	f, err := parser.ParseFile(g.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
			for _, s := range gd.Specs {
				if err := g.proxy(s.(*ast.TypeSpec)); err != nil {
					return nil, err
				}
			}
		}
	}
	if g.body.Len() == 0 {
		return nil, fmt.Errorf("%s: no %s directive on an interface method", filename, directive)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "// Code generated by proxygen from %s. DO NOT EDIT.\n\npackage %s\n\n", filepath.Base(filename), f.Name.Name)
	out.WriteString("import (\n\t\"repro/internal/cca\"\n\t\"repro/internal/core\"\n")
	for _, imp := range f.Imports { // those the proxies name
		if p, _ := strconv.Unquote(imp.Path.Value); regexp.MustCompile(`\b` + regexp.QuoteMeta(path.Base(p)) + `\.`).Match(g.body.Bytes()) {
			fmt.Fprintf(&out, "\t%s\n", imp.Path.Value)
		}
	}
	out.WriteString(")\n")
	out.Write(g.body.Bytes())
	return format.Source(out.Bytes()) // sorts the imports and drops a repeated one
}

// monitorDirective returns the //pmm:monitor line of m's doc comment, or nil.
func monitorDirective(m *ast.Field) *ast.Comment {
	if m.Doc != nil {
		for _, c := range m.Doc.List {
			if f := strings.Fields(c.Text); len(f) > 0 && f[0] == directive {
				return c
			}
		}
	}
	return nil
}

// proxy renders XProxy, providing "x", for an interface XPort with a
// monitored method; any other type spec renders nothing.
func (g *generator) proxy(ts *ast.TypeSpec) error {
	it, ok := ts.Type.(*ast.InterfaceType)
	if !ok || !slices.ContainsFunc(it.Methods.List, func(m *ast.Field) bool { return monitorDirective(m) != nil }) {
		return nil
	}
	stem, ok := strings.CutSuffix(ts.Name.Name, "Port")
	if !ok || stem == "" || ts.TypeParams != nil {
		return g.errorf(ts.Pos(), "monitored interface %s is not a non-generic <X>Port", ts.Name.Name)
	}
	g.nrec = 0
	g.opens.Reset()
	g.methods.Reset()
	for _, m := range it.Methods.List {
		if len(m.Names) == 0 {
			return g.errorf(m.Pos(), "embedded interface in monitored %s: list its methods", ts.Name.Name)
		}
		if err := g.method(stem+"Proxy", lowerFirst(stem), m); err != nil {
			return err
		}
	}
	fmt.Fprintf(&g.body, proxyHead, ts.Name.Name, stem+"Proxy", lowerFirst(stem), g.nrec, g.opens.String())
	g.body.WriteString(g.methods.String())
	return nil
}

// names joins the names a field list declares, all of which must be named.
func (g *generator) names(fl *ast.FieldList, what string) (string, error) {
	var out []string
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			return "", g.errorf(f.Pos(), "%s: name them", what)
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return strings.Join(out, ", "), nil
}

// method renders the proxy's forward of m, monitored if m has a directive.
func (g *generator) method(proxy, provides string, m *ast.Field) error {
	ft, name, d := m.Type.(*ast.FuncType), m.Names[0].Name, monitorDirective(m)
	args, err := g.names(ft.Params, name+" parameters")
	if err != nil {
		return err
	}
	sig, call := strings.TrimPrefix(g.print(ft), "func"), name+"("+args+")"
	if d == nil {
		if call = "p.wire()." + call; ft.Results.NumFields() > 0 {
			call = "return " + call
		}
		fmt.Fprintf(&g.methods, "\nfunc (p *%s) %s%s { %s }\n", proxy, name, sig, call)
		return nil
	}
	record, call, ret := lowerFirst(name), "p.target."+call, ""
	var keys, values []string
	if ft.Results.NumFields() > 0 {
		results, err := g.names(ft.Results, "monitored "+name+" results")
		if err != nil {
			return err
		}
		call, ret = results+" = "+call, "\n\treturn "+results
	}
	for _, kv := range strings.Fields(d.Text)[1:] {
		key, val, ok := strings.Cut(kv, "=")
		switch {
		case !ok:
			return g.errorf(d.Pos(), "%s: %q is not key=expression", directive, kv)
		case !token.IsIdentifier(key):
			return g.errorf(d.Pos(), "%s: key %q is not an identifier", directive, key)
		case key != "record":
			x, err := parser.ParseExprFrom(g.fset, "", val, 0)
			if err != nil {
				return g.errorf(d.Pos(), "%s: %s: %v", directive, kv, err)
			}
			keys, values = append(keys, strconv.Quote(key)), append(values, g.print(x))
		case !token.IsIdentifier(val):
			return g.errorf(d.Pos(), "%s: record name %q is not an identifier", directive, val)
		default:
			record = val
		}
	}
	edge := fmt.Sprintf("core.CallEdge{Caller: p.svc.InstanceName(), Callee: %q, Method: %q}", provides, record)
	fmt.Fprintf(&g.opens, "\t\tp.recs[%d] = mon.Monitor(%s)\n", g.nrec, strings.Join(append([]string{edge}, keys...), ", "))
	fmt.Fprintf(&g.methods, monitoredMethod, proxy, name, sig, g.nrec, strings.Join(values, ", "), call, ret)
	g.nrec++
	return nil
}

func lowerFirst(s string) string {
	r, n := utf8.DecodeRuneInString(s)
	return string(unicode.ToLower(r)) + s[n:]
}
