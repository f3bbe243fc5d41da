// Command wheretimed serves the experiment grid over HTTP: one
// measured cell per POST, a cell already in the persistent trace/tally
// store answered straight from its stored tally, identical in-flight
// requests coalesced into a single simulation, and a clean drain on
// SIGTERM.
//
// Usage:
//
//	wheretimed -addr 127.0.0.1:8080 -store .wtstore
//	curl -d '{"kind":"micro","system":"B","query":"SRS"}' localhost:8080/v1/cells
//	curl localhost:8080/healthz
//
// The base options (-scale, -selectivity, -recsize, -warmup) fix the
// dataset and measurement protocol for every request; a request's
// cell spec selects the system, query, workload parameters and
// platform overrides, and may bound its own simulation time with
// "timeoutMs". Requests that are platform-only variants of one
// workload and arrive within -gangwindow of each other run as a
// single gang work unit (-gangwindow 0 turns this off; -gangmax caps
// the batch). See internal/server for the API and docs/OPERATIONS.md
// for running the service.
//
// The store is opened in recovering mode: a corrupt index.json is
// quarantined (renamed to index.json.corrupt) and the daemon starts
// with an empty cache instead of refusing to boot. Corrupt trace
// files quarantine on first read, and an unwritable store directory
// flips the store read-only — the service keeps answering from
// simulation either way; /healthz says what degraded.
//
// SIGINT or SIGTERM begins the drain: /readyz flips to 503, new cell
// requests are refused, in-flight measurements run to completion, the
// store is flushed, and the process exits 0. The address is printed
// to stderr as "wheretimed: listening on ADDR" once the listener is
// up (so -addr :0 is scriptable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wheretime/internal/harness"
	"wheretime/internal/server"
	"wheretime/internal/tracestore"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port; the chosen address is printed to stderr)")
		storeDir    = flag.String("store", "", "persistent trace/tally store directory; opened in recovering mode (a corrupt index is quarantined, not fatal)")
		scale       = flag.Float64("scale", 0.01, "dataset scale relative to the paper's 1.2M-row R")
		selectivity = flag.Float64("selectivity", 0.10, "default range selection selectivity")
		recsize     = flag.Int("recsize", 100, "default record size in bytes")
		warmup      = flag.Int("warmup", 1, "unmeasured cache-warming runs per cell")
		timeout     = flag.Duration("timeout", server.DefaultTimeout, "per-request simulation deadline and ceiling")
		concurrent  = flag.Int("concurrent", server.DefaultMaxConcurrent, "maximum simultaneous simulations")
		gangWindow  = flag.Duration("gangwindow", server.DefaultGangWindow, "gang-batching accumulation window; compatible requests arriving within this window run as one gang work unit (0 disables batching)")
		gangMax     = flag.Int("gangmax", server.DefaultGangMax, "maximum requests per gang batch; a full window closes early")
	)
	flag.Parse()

	opts := harness.DefaultOptions()
	opts.Scale = *scale
	opts.Selectivity = *selectivity
	opts.RecordSize = *recsize
	opts.Warmup = *warmup
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var store *tracestore.Store
	if *storeDir != "" {
		s, err := tracestore.OpenRecovering(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		store = s
		if n := s.Stats().Quarantined; n > 0 {
			fmt.Fprintf(os.Stderr, "wheretimed: quarantined corrupt index in %s, starting cold\n", s.Dir())
		}
	}

	srv, err := server.New(server.Config{
		Opts:          opts,
		Store:         store,
		Timeout:       *timeout,
		MaxConcurrent: *concurrent,
		GangWindow:    *gangWindow,
		GangMax:       *gangMax,
		Logf:          log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Subscribe before listening: once /readyz can answer, a SIGTERM
	// must already mean "drain", not the default kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "wheretimed: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "wheretimed: draining")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "wheretimed: shutdown: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		if errors.Is(err, tracestore.ErrReadOnly) {
			fmt.Fprintln(os.Stderr, "wheretimed: store is read-only; staged entries were not flushed")
		} else {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if store != nil {
		st := store.Stats()
		ro := ""
		if st.ReadOnly {
			ro = " READ-ONLY"
		}
		fmt.Fprintf(os.Stderr, "store: entry hits=%d misses=%d, trace hits=%d written=%d, entries added=%d, retries=%d quarantined=%d%s (dir %s)\n",
			st.EntryHits, st.EntryMisses, st.TraceHits, st.TracesWritten, st.EntriesAdded, st.Retries, st.Quarantined, ro, store.Dir())
	}
	fmt.Fprintln(os.Stderr, "wheretimed: drained")
}
