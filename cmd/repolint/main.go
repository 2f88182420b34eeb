// Command repolint runs the repository's determinism analyzers — the
// static counterpart of the golden byte-identity tests. It loads the
// named packages (default ./...), runs the five-analyzer suite from
// internal/lint, and prints one line per finding:
//
//	internal/foo/foo.go:12:9: [wallclock] time.Now reads wall clock ...
//
// Intentional sites are annotated in the source with
// `//repolint:allow <analyzer> -- reason`; suppressed findings do not
// fail the run but stay visible in -json output, so the allowlist is
// auditable. Exit status: 0 clean, 1 unsuppressed findings, 2 load or
// internal error.
//
// Usage:
//
//	go run ./cmd/repolint ./...
//	go run ./cmd/repolint -json ./... > repolint.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (suppressed ones included) on stdout")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	relativize(diags)
	failing := lint.Unsuppressed(diags)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range failing {
			fmt.Println(d)
		}
	}
	fmt.Fprintf(os.Stderr, "repolint: %d package(s), %d finding(s), %d allowed\n",
		len(pkgs), len(failing), len(diags)-len(failing))
	if len(failing) > 0 {
		os.Exit(1)
	}
}

// relativize rewrites absolute diagnostic paths relative to the working
// directory, matching the compiler's error format.
func relativize(diags []lint.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].Path); err == nil && len(rel) < len(diags[i].Path) {
			diags[i].Path = rel
		}
	}
}
