// Package lint is the repository's static determinism gate: two custom
// analyzers that enforce, at build time, the byte-identity invariants the
// rest of the repository proves at run time with golden tests.
//
// Every guarantee this reproduction makes — byte-identical output across
// worker counts, resumed checkpoints, scheduler modes and distributed
// owners — rests on two hygiene rules: no wall clock, global RNG or
// process identity in deterministic paths (wallclock), and no unsorted
// map iteration feeding writers, sinks, hashes or returned slices
// (mapiter). A golden test catches a violation only where a golden looks
// and, for map order, only with some probability; the analyzers catch it
// before the code runs. TestRepoClean runs both over the whole module
// and is the one gate: `go test ./internal/lint -run TestRepoClean`.
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
// nondeterminism is intentional. Malformed directives, and directives
// naming an analyzer that does not exist, are themselves diagnostics.
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
	// Run reports the analyzer's findings on one package through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the analyzer suite in reporting order.
func All() []*Analyzer { return []*Analyzer{Mapiter, Wallclock} }

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
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
// in Run's result so a test can audit the allowlist.
type Diagnostic struct {
	Analyzer string
	Path     string
	Line     int
	Col      int
	Message  string
	// Suppressed marks a diagnostic covered by a //repolint:allow
	// directive.
	Suppressed bool
}

// String renders the conventional file:line:col prefix form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}
