package harness

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// TestRecordReadersGolden pins the bytes every reader of the Mastermind's
// records writes: every rank's record tables (pmmcase -records writes rank
// 0's) and call trace, Fig. 9's ghost-update series, Fig. 10's dual and the
// bits of its cost, and a sweep's Fig. 4 scatter and row shard. Each table
// is kept as a SHA-256 in testdata/readers_golden.txt, each trace as one
// line per edge; -update rewrites it.
func TestRecordReadersGolden(t *testing.T) {
	t.Parallel()
	res, _, _ := sharedFixtures(t)
	var got strings.Builder
	digest := func(name string, write func(io.Writer) error) {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s\t%x\n", name, h.Sum(nil))
	}
	for rank, recs := range res.Records {
		for _, rec := range recs {
			digest(fmt.Sprintf("record %d %s", rank, rec.Method), rec.WriteCSV)
		}
	}
	for rank, recs := range res.Records {
		var lines []string
		for e, n := range core.Trace(recs) {
			lines = append(lines, fmt.Sprintf("trace %d\t%s %s %s\t%d\n", rank, e.Caller, e.Callee, e.Method, n))
		}
		slices.Sort(lines)
		got.WriteString(strings.Join(lines, ""))
	}
	digest("fig9", res.WriteGhostCommCSV)

	models := map[Kernel]*ComponentModel{}
	for _, k := range []Kernel{KernelStates, KernelGodunov, KernelEFM} {
		sw, err := RunSweep(tinySweep(k))
		if err != nil {
			t.Fatal(err)
		}
		if models[k], err = FitModels(sw); err != nil {
			t.Fatal(err)
		}
		digest("scatter "+string(k), sw.WriteScatterCSV)
		digest("rows "+string(k), func(w io.Writer) error {
			enc := results.NewCSVEncoder(w)
			for _, row := range sw.Rows() {
				if err := enc.Encode(row); err != nil {
					return err
				}
			}
			return nil
		})
	}
	dual := BuildDual(res, models)
	digest("dual", func(w io.Writer) error { return dual.WriteDOT(w, "fig10") })
	fmt.Fprintf(&got, "cost\t%016x\n", math.Float64bits(dual.Cost()))

	const path = "testdata/readers_golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("record readers' bytes moved\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
