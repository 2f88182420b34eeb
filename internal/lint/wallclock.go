package lint

import (
	"go/ast"
	"go/types"
)

// Wallclock flags reads of nondeterministic ambient state — wall
// clocks, the global math/rand stream, process identity — anywhere in
// production code. Deterministic paths (mpi, platform, cache, tau,
// campaign, harness, results, perfmodel) must derive every value from
// config and seeds so reruns are byte-identical; the legitimate
// exceptions (lease heartbeats, obs span timestamps, bench
// fingerprints, distributed owner ids) carry //repolint:allow
// annotations that double as documentation of intent.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Run:  runWallclock,
}

// seededRandConstructors are the math/rand entry points that are fine in
// deterministic code: they consume an explicit seed or source, which is
// exactly the discipline the invariant demands.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// wallclockKind classifies a function object, or returns "".
func wallclockKind(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "" // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are seeded/derived state
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "wall clock"
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[fn.Name()] {
			return "global RNG"
		}
	case "os":
		switch fn.Name() {
		case "Getpid", "Getppid", "Hostname":
			return "process identity"
		}
	}
	return ""
}

func runWallclock(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if kind := wallclockKind(fn); kind != "" {
				p.Reportf(id.Pos(), "%s.%s reads %s; deterministic paths must derive values from config and seeds (annotate `%s wallclock -- why` if intentional)",
					fn.Pkg().Name(), fn.Name(), kind, directivePrefix)
			}
			return true
		})
	}
	return nil
}
