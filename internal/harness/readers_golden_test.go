package harness

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/results"
)

// TestRecordReadersGolden pins the bytes every reader of the Mastermind's
// records writes: rank 0's record tables (pmmcase -records), Fig. 9's
// ghost-update series, Fig. 10's dual and the bits of its cost, and a
// sweep's Fig. 4 scatter and row shard. Each is kept as a SHA-256 in
// testdata/readers_golden.txt; -update rewrites it.
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
	for _, rec := range res.Records[0] {
		digest("record "+rec.Method, rec.WriteCSV)
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
