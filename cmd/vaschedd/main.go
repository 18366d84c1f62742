// Command vaschedd serves the paper's experiments as a durable,
// multi-tenant job platform on top of the internal/farm execution
// engine: clients submit experiment jobs, poll their status, and fetch
// typed JSON results, while the farm's shared die cache amortises die
// characterisation across jobs.
//
// Usage:
//
//	vaschedd [-addr :8080] [-data-dir DIR] [-coord-id ID] [-max-jobs N]
//	         [-parallel N] [-workers URL,URL] [-tenant-quota N] [-lane-cap N]
//	         [-drain 30s] [-fsync] [-debug-addr :6060]
//	vaschedd -worker [-addr :8081] [-parallel N]
//
// With -data-dir every job mutation is appended to a checksummed
// write-ahead log before it is applied, and boot replays the log: a
// coordinator can be SIGKILLed mid-run, restarted, and every submitted
// job either still carries its completed result or runs again —
// byte-identically, because experiments are deterministic. Job IDs are
// monotonic across restarts. Each boot acquires a new epoch; a stale
// coordinator sharing the same log has all of its writes fenced and
// reports 503 until it is retired (see internal/jobstore and DESIGN.md
// §10). Without -data-dir the store runs in memory.
//
// Submissions are admission-controlled per tenant (the X-Tenant
// request header, default "default"): each tenant gets -tenant-quota
// open jobs, each priority lane ("lane" in the submit body: control,
// interactive, or batch) holds -lane-cap queued jobs, and a rejected
// submit gets 429 with a Retry-After hint. Claims drain the lanes by
// smooth weighted round-robin (16/4/1), so control work wins contended
// slots but batch work never starves.
//
// The two modes form a sharded cluster: coordinators split every
// experiment die loop (die batches and timeline sweeps) into shards and dispatch them to the workers
// named by -workers, retrying, hedging, and finally degrading back to
// local execution when workers fail. Results are byte-identical at any
// worker count, including zero (see internal/cluster and DESIGN.md §8).
//
// Coordinator API:
//
//	POST   /v1/jobs         {"experiment":"fig4","scale":"quick","lane":"batch"}  → 202 + job
//	                        (X-Tenant header selects the tenant; 429 + Retry-After on quota)
//	GET    /v1/jobs         → jobs, newest first; ?limit= caps the page (default 100),
//	                        ?after=ID returns jobs with IDs strictly below the cursor
//	                        (400 when the cursor is malformed or not an existing job id)
//	GET    /v1/jobs/{id}    → job status + typed result when done
//	DELETE /v1/jobs/{id}    → cancel a queued/running job
//	GET    /v1/experiments  → runnable experiment ids
//	GET    /v1/cluster      → attached worker registry + health
//	GET    /healthz         → liveness (503 once fenced by a newer epoch)
//	GET    /metrics         → Prometheus-style counters, gauges & latency histograms
//
// Worker API (served by -worker):
//
//	POST   /v1/shard        → binary shard request/response (internal/cluster codec)
//	GET    /healthz         → liveness (probed by coordinators)
//	GET    /metrics         → worker-side shard counters
//
// Quick start:
//
//	vaschedd -data-dir /var/lib/vaschedd &
//	curl -s -X POST -H 'X-Tenant: acme' localhost:8080/v1/jobs \
//	     -d '{"experiment":"fig4","scale":"quick","lane":"interactive"}'
//	curl -s localhost:8080/v1/jobs/1
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
	"runtime"
	"strings"
	"syscall"
	"time"

	"vasched/internal/cluster"
	"vasched/internal/experiments"
	"vasched/internal/metrics"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or trickling connections cannot pin server
// goroutines.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataDir = flag.String("data-dir", "", "write-ahead log directory; empty runs the job store in memory")
		coordID = flag.String("coord-id", "", "coordinator identity recorded in claim leases (default vaschedd-<pid>)")
		fsync   = flag.Bool("fsync", false, "fsync the WAL after every append (survives machine crashes, not just process kills)")
		maxJobs = flag.Int("max-jobs", 2, "experiment jobs allowed to run concurrently (others queue)")
		par     = flag.Int("parallel", runtime.GOMAXPROCS(0), "die-farm worker goroutines per job (per shard in -worker mode)")
		quota   = flag.Int("tenant-quota", 16, "open (queued+running) jobs allowed per tenant")
		laneCap = flag.Int("lane-cap", 64, "queued jobs allowed per priority lane")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown window for in-flight jobs before they are requeued")
		worker  = flag.Bool("worker", false, "run as a cluster worker: serve shard requests instead of the job API")
		workers = flag.String("workers", "", "comma-separated worker base URLs; shards experiment die loops across them")
		debug   = flag.String("debug-addr", "", "serve /debug/pprof and /debug/trace (Chrome trace JSON) on this extra address; empty disables")
		dieDir  = flag.String("die-cache-dir", "", "directory for the on-disk die blob store; a restarted service (or worker) re-characterises dies from checksummed blobs instead of re-sampling")
	)
	flag.Parse()

	if *dieDir != "" {
		experiments.SetSharedDieCacheDir(*dieDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker {
		handler := cluster.Handler(experiments.NewExecutor(*par), metrics.NewRegistry())
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaschedd:", err)
			os.Exit(1)
		}
		httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
		errCh := make(chan error, 1)
		go func() { errCh <- httpSrv.Serve(ln) }()
		// Log the bound (not requested) address so -addr :0 is usable by
		// harnesses that spawn worker fleets on ephemeral ports.
		fmt.Fprintf(os.Stderr, "vaschedd: worker listening on %s (parallel %d)\n", ln.Addr(), *par)
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "vaschedd: worker shutting down")
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(shutCtx); err != nil {
				fmt.Fprintln(os.Stderr, "vaschedd: shutdown:", err)
			}
		case err := <-errCh:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "vaschedd:", err)
				os.Exit(1)
			}
		}
		return
	}

	srv, err := newServer(serverConfig{
		MaxJobs:      *maxJobs,
		Workers:      *par,
		WorkerURLs:   splitURLs(*workers),
		CoordID:      *coordID,
		DataDir:      *dataDir,
		Fsync:        *fsync,
		TenantQuota:  *quota,
		LaneCapacity: *laneCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaschedd:", err)
		os.Exit(1)
	}
	if st := srv.store.Stats(); st.Records > 0 {
		fmt.Fprintf(os.Stderr, "vaschedd: replayed %d records from %d segment(s), requeued %d job(s), crash_recovered=%v\n",
			st.Records, st.Segments, st.Requeued, st.CrashRecovered)
	}
	if srv.clust != nil {
		go srv.probeLoop(ctx, 15*time.Second)
		fmt.Fprintf(os.Stderr, "vaschedd: clustering across %d workers\n", srv.clust.NumWorkers())
	}
	if *debug != "" {
		dbgSrv := &http.Server{Addr: *debug, Handler: srv.debugMux(), ReadHeaderTimeout: readHeaderTimeout}
		defer dbgSrv.Close()
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "vaschedd: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "vaschedd: debug endpoints on %s\n", *debug)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaschedd:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.routes(), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "vaschedd: listening on %s (epoch %d, max-jobs %d, parallel %d)\n",
		ln.Addr(), srv.epoch, *maxJobs, *par)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting requests, give in-flight
		// jobs the drain window to finish (their results are persisted),
		// requeue whatever remains, and seal the log with the
		// clean-shutdown record.
		fmt.Fprintln(os.Stderr, "vaschedd: draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "vaschedd: shutdown:", err)
		}
		srv.Shutdown(shutCtx)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "vaschedd:", err)
			os.Exit(1)
		}
	}
}

// splitURLs parses the -workers flag: comma-separated base URLs, empty
// entries dropped, trailing slashes trimmed.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}
