package main

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The package whose proxies proxygen writes.
var componentsDir = filepath.Join("..", "..", "internal", "components")

func generate(t *testing.T, src string) string {
	t.Helper()
	out, err := Generate("ports.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// wants fails t for every snippet src lacks.
func wants(t *testing.T, src string, snippets ...string) {
	t.Helper()
	for _, s := range snippets {
		if !strings.Contains(src, s) {
			t.Errorf("generated source lacks %q:\n%s", s, src)
		}
	}
}

// TestProxiesUpToDate is the staleness gate: the checked-in proxies are
// exactly what the port directives generate.
func TestProxiesUpToDate(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(componentsDir, source))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(source, src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(componentsDir, output)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale: run go generate ./internal/components", path)
	}
}

func TestGeneratedSourceIsValidGo(t *testing.T) {
	// Only the monitored interface gets a proxy, and only the packages
	// its signatures and parameter expressions name are imported.
	src := generate(t, `package p

import (
	"io"
	"strings"
	"time"
)

type ReaderPort interface {
	//pmm:monitor n=float64(len(b))
	Read(b []byte, sep strings.Builder) (n int, err error)
	Close() error
	//pmm:monitor d=time.Duration(0).Seconds()
	Wait()
}

type WriterPort interface {
	Write(w io.Writer)
}
`)
	if _, err := parser.ParseFile(token.NewFileSet(), "proxies_gen.go", src, 0); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	if f, err := format.Source([]byte(src)); err != nil || string(f) != src {
		t.Errorf("generated source is not gofmt-clean (%v):\n%s", err, src)
	}
	wants(t, src,
		"// Code generated by proxygen from ports.go. DO NOT EDIT.\n",
		"var _ ReaderPort = (*ReaderProxy)(nil)",
		`svc.AddProvidesPort(p, "reader", TypeReaderPort)`,
		"func (p *ReaderProxy) Read(b []byte, sep strings.Builder) (n int, err error) {",
		"n, err = p.target.Read(b, sep)",
		"func (p *ReaderProxy) Close() error { return p.wire().Close() }",
		"import (\n\t\"repro/internal/cca\"\n\t\"repro/internal/core\"\n\t\"strings\"\n\t\"time\"\n)",
	)
	if strings.Contains(src, "WriterProxy") || strings.Contains(src, `"io"`) {
		t.Errorf("unmonitored WriterPort leaked into the output:\n%s", src)
	}
}

func TestGenerateMethodWithResult(t *testing.T) {
	src := generate(t, `package p

type SolverPort interface {
	//pmm:monitor n=float64(n)
	Evaluate(n int) (iters int)
	//pmm:monitor
	Split() (lo, hi float64)
}
`)
	wants(t, src,
		"func (p *SolverProxy) Evaluate(n int) (iters int) {",
		"recs   [2]*core.Record",
		"p.recs[0].Start(float64(n))\n",
		"iters = p.target.Evaluate(n)\n\tp.recs[0].Stop()",
		`p.recs[1] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "solver", Method: "split"})`,
		"\treturn iters\n}",
		"lo, hi = p.target.Split()",
		"\treturn lo, hi\n}",
	)
}

func TestGenerateParamlessMethod(t *testing.T) {
	src := generate(t, `package p

type SinkPort interface {
	//pmm:monitor
	Flush()
}
`)
	wants(t, src,
		"func (p *SinkProxy) Flush() {",
		`p.recs[0] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "sink", Method: "flush"})`,
		"p.recs[0].Start()\n\tp.svc.Context().Proc.ChargeCall()\n\tp.target.Flush()",
	)
	// No redundant trailing return in a method without results.
	if strings.Contains(src, "return\n") {
		t.Errorf("bare return in a result-less method:\n%s", src)
	}
}

func TestLowerFirstNaming(t *testing.T) {
	// Records use the paper's lower-case convention (sc_proxy::compute(),
	// not ::Compute()); record= overrides the method's name.
	src := generate(t, `package p

type MeshPort interface {
	//pmm:monitor level=float64(level)
	GhostUpdate(level int)
	//pmm:monitor record=prolong
	Regrid()
}
`)
	wants(t, src,
		`p.recs[0] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "mesh", Method: "ghostUpdate"}, "level")`,
		`p.recs[0].Start(float64(level))`,
		`p.recs[1] = mon.Monitor(core.CallEdge{Caller: p.svc.InstanceName(), Callee: "mesh", Method: "prolong"})`,
		"p.recs[1].Start()\n",
	)
}

// TestGenerateErrorsAreLocated holds each mistake in the mark-up to an
// error at its line of ports.go.
func TestGenerateErrorsAreLocated(t *testing.T) {
	for _, c := range []struct {
		name, body string
		line       int
	}{
		{"embedded interface", "\tio.Reader\n\t//pmm:monitor\n\tM()\n", 4},
		{"field without =", "\t//pmm:monitor Q\n\tM(a int)\n", 4},
		{"non-identifier key", "\t//pmm:monitor 1Q=float64(a)\n\tM(a int)\n", 4},
		{"non-identifier record", "\t//pmm:monitor record=pro.long\n\tM(a int)\n", 4},
		{"unparsable expression", "\t//pmm:monitor Q=float64(a\n\tM(a int)\n", 4},
		{"unnamed results", "\tN()\n\t//pmm:monitor\n\tM(a int) int\n", 6},
		{"unnamed parameters", "\t//pmm:monitor\n\tM(int)\n", 5},
	} {
		src := "package p\n\ntype XPort interface {\n" + c.body + "}\n"
		_, err := Generate("ports.go", []byte(src))
		if want := fmt.Sprintf("ports.go:%d:", c.line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want one at %s", c.name, err, want)
		}
	}
	if _, err := Generate("ports.go", []byte("package p\n\ntype X interface {\n\t//pmm:monitor\n\tM()\n}\n")); err == nil ||
		!strings.HasPrefix(err.Error(), "ports.go:3:") {
		t.Errorf("monitored interface not named <X>Port: error %v, want one at ports.go:3:", err)
	}
}

// FuzzMonitorDirective: any directive text on a one-method interface gives
// an error or gofmt-clean Go, never a panic. The seeds are the directives
// of the components ports.
func FuzzMonitorDirective(f *testing.F) {
	ports, err := os.ReadFile(filepath.Join(componentsDir, source))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(ports), "\n") {
		if d, ok := strings.CutPrefix(strings.TrimSpace(line), directive); ok {
			f.Add(d)
		}
	}
	f.Fuzz(func(t *testing.T, d string) {
		src := "package p\n\nimport \"repro/internal/euler\"\n\ntype XPort interface {\n\t" + directive + d +
			"\n\tM(b *euler.Block, dir euler.Dir, level, fineLevel int, qL, flux *euler.EdgeField) (moved int)\n}\n"
		out, err := Generate("ports.go", []byte(src))
		if err != nil {
			return
		}
		if f, err := format.Source(out); err != nil || !bytes.Equal(f, out) {
			t.Fatalf("directive %q: output is not gofmt-clean (%v):\n%s", d, err, out)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), output, out, 0); err != nil {
			t.Fatalf("directive %q: output does not parse: %v\n%s", d, err, out)
		}
	})
}
