// Command proxygen writes the CCA proxy components for the port interfaces
// of ports.go into proxies_gen.go, driven by the mark-up the paper's
// Section 6 anticipates. A monitored port method ends its doc comment with
// the performance parameters to record, each as name=expression over the
// arguments (no spaces in an expression):
//
//	//pmm:monitor Q=float64(b.Cells()) mode=float64(dir)
//	Compute(b *euler.Block, dir euler.Dir, qL, qR *euler.EdgeField)
//
// The call is recorded as "<instance>::compute()"; record=<name> renames
// it. A bare directive records no parameters, and a monitored method names
// its results. Other methods only forward, and an interface without a
// directive gets no proxy. XPort's proxy is XProxy, providing "x".
// proxygen takes no flags; run it through the package's go:generate line:
//
//	go generate ./internal/components
package main

import (
	"fmt"
	"os"
)

// The port file read and the proxy file written, in the current directory.
const source, output = "ports.go", "proxies_gen.go"

func main() {
	src, err := os.ReadFile(source)
	if err == nil {
		src, err = Generate(source, src)
	}
	if err == nil {
		err = os.WriteFile(output, src, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxygen:", err)
		os.Exit(1)
	}
}
