package lint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// directivePrefix introduces an allow annotation:
//
//	//repolint:allow wallclock -- lease heartbeats are wall-clock by design
//
// Comma-separate analyzer names to allow several at once. The reason
// after " -- " is mandatory; a directive without one is itself reported.
const directivePrefix = "//repolint:allow"

// directive is one parsed allow annotation.
type directive struct {
	names []string
	line  int
}

// allows reports whether the directive covers the named analyzer.
func (d directive) allows(name string) bool {
	for _, n := range d.names {
		if n == name {
			return true
		}
	}
	return false
}

// funcSpan is a directive hoisted from a function's doc comment: it
// covers every line of the function, so one annotation can document a
// function whose whole body is intentionally nondeterministic.
type funcSpan struct {
	directive
	from, to int
}

// suppressor indexes one package's allow directives by file.
type suppressor struct {
	lines map[string][]directive // file -> line/inline directives
	spans map[string][]funcSpan  // file -> function-doc directives
	bad   []Diagnostic           // malformed or unknown-name directives
}

// metaAnalyzer names the engine's own diagnostics (malformed
// directives); it is not suppressible.
const metaAnalyzer = "repolint"

// newSuppressor parses every //repolint:allow directive in the package.
// known is the set of valid analyzer names; directives naming anything
// else are reported rather than silently ignored, because a typo in an
// allowlist entry would otherwise disable nothing and hide a violation.
func newSuppressor(p *Package, known map[string]bool) *suppressor {
	s := &suppressor{lines: map[string][]directive{}, spans: map[string][]funcSpan{}}
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename

		// Index doc-comment spans first so line directives inside a doc
		// comment can be promoted to whole-function coverage.
		docLines := map[int]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for ln := p.Fset.Position(fd.Doc.Pos()).Line; ln <= p.Fset.Position(fd.Doc.End()).Line; ln++ {
				docLines[ln] = fd
			}
		}

		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d, err := parseDirective(c.Text, pos.Line, known)
				if err != nil {
					s.bad = append(s.bad, Diagnostic{
						Analyzer: metaAnalyzer,
						Path:     filename, Line: pos.Line, Col: pos.Column,
						Message: err.Error(),
					})
					continue
				}
				if fd, ok := docLines[pos.Line]; ok {
					s.spans[filename] = append(s.spans[filename], funcSpan{
						directive: d,
						from:      p.Fset.Position(fd.Pos()).Line,
						to:        p.Fset.Position(fd.End()).Line,
					})
					continue
				}
				s.lines[filename] = append(s.lines[filename], d)
			}
		}
	}
	return s
}

// parseDirective validates one annotation's syntax.
func parseDirective(text string, line int, known map[string]bool) (directive, error) {
	rest := strings.TrimPrefix(text, directivePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return directive{}, fmt.Errorf("malformed %s directive: %q", directivePrefix, text)
	}
	namesPart, reason, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(reason) == "" {
		return directive{}, fmt.Errorf("%s directive needs a reason: %q (syntax: %s <analyzer> -- <why>)", directivePrefix, text, directivePrefix)
	}
	names := strings.Fields(strings.ReplaceAll(namesPart, ",", " "))
	if len(names) == 0 {
		return directive{}, fmt.Errorf("%s directive names no analyzer: %q", directivePrefix, text)
	}
	for _, n := range names {
		if !known[n] {
			return directive{}, fmt.Errorf("%s directive names unknown analyzer %q", directivePrefix, n)
		}
	}
	return directive{names: names, line: line}, nil
}

// apply marks the diagnostic suppressed when an allow directive covers
// it: on its own line, on the line directly above it, or hoisted from
// the enclosing function's doc comment.
func (s *suppressor) apply(d *Diagnostic) {
	if d.Analyzer == metaAnalyzer {
		return
	}
	for _, dir := range s.lines[d.Path] {
		if (dir.line == d.Line || dir.line == d.Line-1) && dir.allows(d.Analyzer) {
			d.Suppressed = true
			return
		}
	}
	for _, sp := range s.spans[d.Path] {
		if sp.from <= d.Line && d.Line <= sp.to && sp.allows(d.Analyzer) {
			d.Suppressed = true
			return
		}
	}
}

// Run executes the analyzers over the packages, applies the allow
// directives, and returns every diagnostic — suppressed ones included,
// flagged as such — sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		sup := newSuppressor(p, known)
		diags = append(diags, sup.bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     p.Fset,
				Files:    p.Files,
				Info:     p.Info,
				report: func(d Diagnostic) {
					sup.apply(&d)
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, p.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Unsuppressed filters to the diagnostics that fail the gate.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
