package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("jobs_total") != c {
		t.Error("counter lookup not idempotent")
	}

	h := r.Histogram("lat_us", []float64{10, 100})
	for _, v := range []float64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("hist count = %d, want 4", got)
	}
	if got := h.Sum(); got != 1026 {
		t.Errorf("hist sum = %g, want 1026", got)
	}
	if r.Histogram("lat_us", nil) != h {
		t.Error("histogram lookup not idempotent")
	}
}

// TestWriteTextGolden pins the text exposition format, including
// cumulative histogram buckets and sorted names.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(3)
	r.Counter("a_total").Inc()
	h := r.Histogram("c_us", []float64{10, 100})
	for _, v := range []float64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `a_total 1
b_total 3
c_us_bucket{le="10"} 2
c_us_bucket{le="100"} 3
c_us_bucket{le="+Inf"} 4
c_us_sum 1026
c_us_count 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry returned non-nil counter")
	}
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	h := r.Histogram("x", LatencyBucketsUS)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded")
	}
	if err := r.WriteText(io.Discard); err != nil {
		t.Error(err)
	}

	var o *Observer
	if o.Tracer() != nil || o.Metrics() != nil {
		t.Error("nil observer handed out non-nil components")
	}
}

// TestRegistryConcurrent updates instruments from many goroutines while
// a reader exposes the registry; with -race this is the registry's
// data-race proof, and the final counts prove no lost updates.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 1000
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(fmt.Sprintf("own_%d_total", g)).Inc()
				r.Histogram("lat_us", LatencyBucketsUS).Observe(float64(i))
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := r.Counter("shared_total").Value(); got != goroutines*iters {
		t.Errorf("shared counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("lat_us", nil).Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestDumpFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := r.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "x_total 1\n" {
		t.Errorf("dump = %q", data)
	}
}

// TestServe exercises the live endpoint end to end on an ephemeral port.
func TestServe(t *testing.T) {
	o := New(Options{TrackCapacity: 16})
	o.Metrics().Counter("live_total").Add(7)
	o.Tracer().Track("campaign", "worker 00").Instant("c", "tick")
	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	if got := get("/metrics"); !bytes.Contains([]byte(got), []byte("live_total 7")) {
		t.Errorf("/metrics = %q", got)
	}
	tf, err := ParseTrace([]byte(get("/trace")))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tf); err != nil {
		t.Error(err)
	}
	sc := bufio.NewScanner(bytes.NewReader([]byte(get("/"))))
	if !sc.Scan() || sc.Text() != "obs endpoints:" {
		t.Error("index page missing")
	}
}
