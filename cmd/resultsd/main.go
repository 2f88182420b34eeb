// Command resultsd serves a finished campaign's results as a query
// service: point it at a rows directory (or a campaign output directory
// containing one) and it answers performance-model queries over HTTP
// without re-running a single simulation.
//
//	resultsd -dir campaign-out [-addr 127.0.0.1:9190] [-cache 256]
//	         [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Endpoints (all GET, JSON unless noted):
//
//	/          service summary: scenario count, axes, backends, endpoints
//	/healthz   liveness: {"ok": true, "scenarios": N}
//	/metrics   obs registry text exposition (cache hits/misses, latencies)
//	/scenarios catalog listing, metadata only — no shard is decoded
//	/scenario  full detail for matching scenarios: fitted coefficients per
//	           backend (selectors: name, tag, or any axis value)
//	/predict   evaluate one measure at a point: scenario, measure, q,
//	           optional model (fitted|queue), lambda, dcm
//	/trend     one coefficient-vs-axis curve per fitted parameter across
//	           the scenarios matching the query
//
// The full request/response contract, the error-code table and a curl
// walkthrough live in docs/resultsd-api.md; the binary row format the
// service prefers when present is documented in the repository doc.go
// ("Results service").
//
// With -addr 127.0.0.1:0 the kernel picks the port; the chosen address
// is printed as "resultsd: listening on http://..." so scripts (and the
// CI serve job) can scrape it.
//
// SIGINT or SIGTERM stops the service cleanly: the listener closes,
// requests in flight get drainTimeout to finish, the profiles named by
// -cpuprofile/-memprofile (go tool pprof; they observe the process and
// change no response byte) are written, and the process exits 0. Slow,
// idle or oversized clients are bounded by fixed header-read, write and
// keep-alive timeouts and a header-size limit (431 beyond it).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/results/serve"
)

// Fixed limits, not flags: nothing about a campaign changes how long a
// client may take to send its headers, read its reply or hold an idle
// connection, nor how large a query's headers may be.
const (
	readHeaderTimeout = 5 * time.Second
	// writeTimeout runs from the end of the request headers to the end of
	// the reply, so it also bounds a /scenario or /trend that decodes many
	// cold shards.
	writeTimeout   = time.Minute
	idleTimeout    = 2 * time.Minute
	maxHeaderBytes = 64 << 10
	// drainTimeout is how long in-flight requests get after a stop signal.
	drainTimeout = 10 * time.Second
)

func main() {
	var (
		dir      = flag.String("dir", "", "campaign rows directory (or a campaign output directory containing rows/)")
		addr     = flag.String("addr", "127.0.0.1:9190", "listen address; port 0 picks a free port")
		cacheCap = flag.Int("cache", serve.DefaultCacheCap, "decoded scenarios kept resident in the read-through cache")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the service to this file when it stops (go tool pprof); responses are unchanged")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file when the service stops (go tool pprof -sample_index=alloc_space); responses are unchanged")
	)
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("resultsd: -dir required (a campaign rows directory)"))
	}

	// The service records spans and cache/query counters into this
	// observer; /metrics exposes the registry.
	observer := obs.New(obs.Options{})
	obs.Enable(observer)

	svc, err := serve.New(*dir, serve.Options{CacheCap: *cacheCap, Obs: observer})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	stopProfiles, err := obs.Outputs{CPUProfile: *cpuProf, MemProfile: *memProf}.Start()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("resultsd: %d scenarios from %s\n", len(svc.Catalog().Scenarios()), svc.Catalog().Dir())
	fmt.Printf("resultsd: listening on http://%s\n", ln.Addr())

	srv := newServer(svc.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-served:
		fatal(err) // the listener failed; Serve never returns nil
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(drain)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	if shutdownErr != nil {
		fmt.Fprintf(os.Stderr, "resultsd: requests still in flight after %v: %v\n", drainTimeout, shutdownErr)
	}
	fmt.Println("resultsd: stopped")
}

// newServer is the HTTP server resultsd runs its handler behind.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
