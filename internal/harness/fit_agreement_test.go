package harness

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/results"
	"repro/internal/results/serve"
)

// TestServedFitMatchesFitModels pins the one-fitter contract: resultsd,
// serving a sweep's rows from either shard format under the key the
// figures command uses, fits the same mean and sigma models FitModels does,
// and the same cache-aware model T = c0 + c1·Q + c2·DCM that CacheAwareFit
// writes to fig*_model.txt, coefficient for coefficient and bit for bit.
func TestServedFitMatchesFitModels(t *testing.T) {
	t.Parallel()
	_, sweeps, models := sharedFixtures(t)
	kernels := []Kernel{KernelStates, KernelGodunov, KernelEFM}
	for _, shards := range []struct {
		format string
		open   func(string) (results.Sink, error)
	}{
		{"csv", func(dir string) (results.Sink, error) { return results.NewCSVShardSink(dir) }},
		{"bin", func(dir string) (results.Sink, error) { return results.NewBinShardSink(dir) }},
	} {
		format, dir := shards.format, t.TempDir()
		sink, err := shards.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernels {
			for _, row := range sweeps[k].Rows() {
				if err := sink.Emit("sweep/"+string(k), row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		svc, err := serve.New(dir, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernels {
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/scenario?name=sweep_"+string(k), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", format, k, rec.Code, rec.Body)
			}
			var body struct {
				Scenarios []struct {
					Format   string `json:"format"`
					Backends []struct {
						Backend      string              `json:"backend"`
						Coefficients []serve.Coefficient `json:"coefficients"`
					} `json:"backends"`
				} `json:"scenarios"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if len(body.Scenarios) != 1 || body.Scenarios[0].Format != format || body.Scenarios[0].Backends[0].Backend != "fitted" {
				t.Fatalf("%s %s: unexpected body %s", format, k, rec.Body)
			}
			got := map[string][]serve.Coefficient{}
			for _, c := range body.Scenarios[0].Backends[0].Coefficients {
				got[c.Model] = append(got[c.Model], c)
			}
			ml, _, _, err := CacheAwareFit(sweeps[k].Rows())
			if err != nil {
				t.Fatal(err)
			}
			multi := got["multi"]
			if want := append([]string{"c0"}, ml.Names...); len(multi) != len(want) {
				t.Errorf("%s %s multi: served %v, CacheAwareFit %s", format, k, multi, ml)
			} else {
				for i, c := range multi {
					if c.Name != want[i] || math.Float64bits(c.Value) != math.Float64bits(ml.Coeffs[i]) {
						t.Errorf("%s %s multi %s = %v served, CacheAwareFit %s = %v", format, k, c.Name, c.Value, want[i], ml.Coeffs[i])
					}
				}
			}
			for _, part := range []struct {
				model string
				m     perfmodel.Model
			}{{"mean", models[k].Mean}, {"sigma", models[k].Sigma}} {
				names, values := perfmodel.Coefficients(part.m)
				served := got[part.model]
				if len(served) != len(names) {
					t.Errorf("%s %s %s: served %v, FitModels %s", format, k, part.model, served, part.m)
					continue
				}
				for i, c := range served {
					if c.Name != names[i] || math.Float64bits(c.Value) != math.Float64bits(values[i]) {
						t.Errorf("%s %s %s %s = %v served, FitModels %s = %v", format, k, part.model, c.Name, c.Value, names[i], values[i])
					}
				}
			}
		}
	}
}
