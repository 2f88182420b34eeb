// Package lint is repolint's static-analysis engine: five custom
// analyzers that enforce, at build time, the determinism invariants the
// rest of the repository proves at run time with golden tests.
//
// Every guarantee this reproduction makes — byte-identical output across
// worker counts, resumed checkpoints, scheduler modes and distributed
// owners — rests on hygiene rules (no wall clocks or global RNG in
// deterministic paths, no unsorted map iteration feeding sinks or
// hashes, no mutex held across lease I/O, obs instruments captured at
// construction, a package doc comment on every package so the written
// API contract stays anchored in the source). Violations used to
// surface only when a golden test caught changed bytes; the analyzers
// here catch them before the code runs.
//
// The engine is deliberately self-contained: it is a small reimplementation
// of the golang.org/x/tools/go/analysis shape (Analyzer, Pass, Diagnostic,
// testdata fixtures with "want" comments) on the standard library alone —
// packages are listed with `go list -export`, parsed with go/parser and
// type-checked with go/types against compiler export data, so the suite
// needs no network access and no third-party modules.
//
// Intentional nondeterminism is annotated in the source:
//
//	//repolint:allow wallclock -- lease heartbeats are wall-clock by design
//
// The directive suppresses the named analyzer (comma-separate several) on
// its own line and the line below it; placed in a function's doc comment
// it covers the whole function. The reason after " -- " is mandatory —
// the allowlist doubles as documentation of every site where
// nondeterminism is intentional. Malformed directives are themselves
// diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //repolint:allow directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run reports the analyzer's findings on one package through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Path:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, suppressed or not. Suppressed findings stay
// visible (cmd/repolint -json emits them) so the allowlist is auditable.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Suppressed marks a diagnostic covered by a //repolint:allow
	// directive; Reason carries the directive's mandatory justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// String renders the conventional file:line:col prefix form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}
