// Command dlprojd serves the defect-level projection pipeline over
// HTTP/JSON: the hardened serving layer of internal/serve behind a
// plain net/http server.
//
// Endpoints:
//
//	POST /v1/dl                    closed-form defect-level models (eq. 1–3, 11)
//	POST /v1/fit                   fit model parameters to fallout points
//	POST /v1/coverage              coverage-growth curves (analytic or empirical)
//	POST /v1/pipeline              submit an async pipeline job (202; 429 when shed)
//	POST /v1/pipeline:batch        submit many jobs in one round trip (per-item statuses)
//	GET  /v1/store/{key}           fetch a result envelope (peer-facing store API; HEAD for existence)
//	PUT  /v1/store/{key}           accept a verified result envelope (idempotent; heals a corrupt copy)
//	GET  /v1/pipeline/{id}         job status
//	GET  /v1/pipeline/{id}/result  job result (202 while pending)
//	GET  /v1/pipeline/{id}/events  live job events (SSE; ?poll=1 for long-poll)
//	POST /v1/pipeline/{id}/cancel  cancel a job
//	POST /v1/cluster/reload        re-read -peers-file and swap the ring (loopback-only; also on SIGHUP)
//	GET  /healthz                  liveness + build info
//	GET  /readyz                   readiness + ring state (503 while draining or mid-reload)
//	GET  /metrics                  Prometheus text exposition (?format=json for the obs report)
//
// Pipeline jobs run on a bounded worker pool behind a bounded admission
// queue: a full queue sheds with 429 + Retry-After, and identical
// concurrent submissions coalesce onto a single run. The first
// SIGINT/SIGTERM starts a graceful drain — readiness flips off, new
// submissions get 503, in-flight jobs get -drain-budget to finish and
// are then cancelled; a second signal forces immediate exit
// (internal/sigctx, shared with dlproj).
//
// Multi-node serving: -node and -peers (or -peers-file) place the daemon
// on a consistent-hash ring — a submission whose result key another node
// owns is forwarded there (request ID propagated) and the result adopted
// through the owner's /v1/store API. With -rf N > 1 each result lives on
// the N distinct ring owners: a locally computed result fans out to the
// other owners (a failed copy is dropped; the owner converges through
// read-repair on its first read of the key), and when the primary owner
// is dead the replica set is walked — fetching the already-replicated
// envelope beats re-simulating.
// -peers-file makes membership dynamic: rewrite the file and send SIGHUP
// (or POST /v1/cluster/reload from loopback) to swap the ring without a
// restart. -store-remote layers a shared remote result store over the
// local cache directory: reads are local-first and backfill from the
// remote, writes land locally and are copied to the remote best-effort,
// and a failing remote costs recomputation, never an error. Without
// -cache-dir the remote is the only result store.
//
// Every request carries a correlation ID (inbound X-Request-ID when
// well-formed, generated otherwise), echoed on the response and written
// on every access-log line; -log-level selects the JSON log threshold.
// -pprof exposes net/http/pprof on a second, loopback-only listener —
// profiling endpoints never ride the service port.
//
// Exit codes:
//
//	0  clean shutdown (every job finished on its own)
//	1  listen/serve failure
//	2  usage error
//	4  drained, but jobs had to be cancelled (partial shutdown)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/obs"
	"defectsim/internal/serve"
	"defectsim/internal/sigctx"
	"defectsim/internal/store"
)

func main() {
	os.Exit(run())
}

func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("invalid -log-level %q (debug, info, warn or error)", s)
}

// pprofListener opens the profiling listener after enforcing that addr
// is loopback: pprof exposes heap contents and symbol tables, so it must
// never bind a routable interface, regardless of what the flag says.
func pprofListener(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof: %v", err)
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, fmt.Errorf("-pprof address %q is not loopback; refusing to expose profiling endpoints", addr)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof: %v", err)
	}
	return ln, nil
}

// servePprof serves the net/http/pprof handlers on their own mux — the
// service handler never sees /debug/pprof, and the default ServeMux
// stays untouched.
func servePprof(ln net.Listener, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// No timeouts: CPU profiles intentionally run for tens of seconds.
	if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
		logger.Error("pprof listener failed", "err", err)
	}
}

func run() int {
	var (
		addr         = flag.String("addr", "localhost:8447", "listen address")
		queueDepth   = flag.Int("queue", 16, "admission queue depth; a full queue sheds submissions with 429")
		workers      = flag.Int("workers", 2, "concurrently executing pipeline jobs")
		simWorkers   = flag.Int("sim-workers", 0, "per-job fault-simulation worker pool (0 = all CPUs)")
		cacheDir     = flag.String("cache-dir", "", "directory for per-key pipeline result caches (empty = no cache)")
		drainBudget  = flag.Duration("drain-budget", 10*time.Second, "how long a drain waits for jobs before cancelling them")
		drainGrace   = flag.Duration("drain-grace", 5*time.Second, "how long a drain waits for cancelled jobs to unwind")
		defDeadline  = flag.Duration("default-deadline", 2*time.Minute, "per-job deadline when the request sets none (0 = unlimited)")
		maxDeadline  = flag.Duration("max-deadline", 10*time.Minute, "cap on per-request deadlines (0 = uncapped)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed and draining responses")
		maxJobs      = flag.Int("max-jobs", 1024, "finished-job records retained for status/result queries")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		logLevel     = flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. localhost:6060; empty = off)")
		nodeName     = flag.String("node", "", "this node's name on the cluster ring (required with -peers / -peers-file)")
		peers        = flag.String("peers", "", "static peer list name=url,... (e.g. node-b=http://10.0.0.2:8447); empty = single-node")
		peersFile    = flag.String("peers-file", "", "peers file (one name=url per line, # comments); reloaded on SIGHUP or POST /v1/cluster/reload")
		rf           = flag.Int("rf", 1, "replication factor: each result lives on this many ring owners; a failed copy is dropped and read-repaired (requires -cache-dir and peers when > 1)")
		storeRemote  = flag.String("store-remote", "", "base URL of a shared remote result store: the only store, or with -cache-dir a best-effort copy behind local-first reads (empty = local only)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "dlprojd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlprojd:", err)
		return 2
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dlprojd:", err)
			return 1
		}
	}
	if *pprofAddr != "" {
		ln, err := pprofListener(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlprojd:", err)
			return 2
		}
		defer ln.Close()
		go servePprof(ln, logger)
		fmt.Fprintf(os.Stderr, "dlprojd: pprof on http://%s/debug/pprof/ (loopback only)\n", ln.Addr())
	}

	// One tracer/registry backs /metrics, the store backends and the
	// cluster's per-peer instruments, so a single scrape sees it all.
	tr := obs.New()

	// Result store: -cache-dir alone is resolved inside the serving layer
	// (FS store). A -store-remote layers a shared remote store over it —
	// the local store replicated to one remote owner, so a failed copy is
	// dropped and counted in store_replicate_total — or serves as the only
	// backend when no cache dir is configured.
	var st store.Store
	if *storeRemote != "" {
		sm := store.NewMetrics(tr.Metrics())
		remote, err := store.NewHTTP(*storeRemote, store.HTTPOptions{Metrics: sm})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlprojd:", err)
			return 2
		}
		st = remote
		if *cacheDir != "" {
			local, err := store.NewFS(*cacheDir, sm)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dlprojd:", err)
				return 1
			}
			if st, err = store.NewReplicated(local, store.OneRemote(remote), sm); err != nil {
				fmt.Fprintln(os.Stderr, "dlprojd:", err)
				return 1
			}
		}
	}

	// Cluster ring: membership from -peers (static) or -peers-file
	// (reloadable). Submissions whose cache key another node owns are
	// forwarded there, with replica failover and local fallback on any
	// peer failure.
	var (
		cl         *cluster.Cluster
		membership *cluster.Membership
	)
	if *peers != "" && *peersFile != "" {
		fmt.Fprintln(os.Stderr, "dlprojd: -peers and -peers-file are mutually exclusive")
		return 2
	}
	if *rf < 1 {
		fmt.Fprintln(os.Stderr, "dlprojd: -rf must be >= 1")
		return 2
	}
	if *peers != "" || *peersFile != "" {
		if *nodeName == "" {
			fmt.Fprintln(os.Stderr, "dlprojd: -peers / -peers-file requires -node (this node's ring name)")
			return 2
		}
		// The node's own advertised address, for rejecting peer entries
		// that point back at it. Unknowable when listening on all
		// interfaces (addr starting with ":").
		selfURL := ""
		if !strings.HasPrefix(*addr, ":") {
			selfURL = "http://" + *addr
		}
		var (
			specs []cluster.PeerSpec
			err   error
		)
		if *peersFile != "" {
			data, rerr := os.ReadFile(*peersFile)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "dlprojd:", rerr)
				return 2
			}
			specs, err = cluster.ParsePeersFile(data, *nodeName, selfURL)
		} else {
			specs, err = cluster.ParsePeers(*peers, selfURL)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlprojd:", err)
			return 2
		}
		if cl, err = cluster.New(*nodeName, specs, tr.Metrics(), cluster.Options{RF: *rf}); err != nil {
			fmt.Fprintln(os.Stderr, "dlprojd:", err)
			return 2
		}
		if *peersFile != "" {
			membership = cluster.NewMembership(cl, *peersFile, selfURL)
		}
		fmt.Fprintf(os.Stderr, "dlprojd: cluster node %q in a ring of %d (rf %d)\n",
			*nodeName, cl.Ring().Len(), *rf)
	} else if *rf > 1 {
		fmt.Fprintln(os.Stderr, "dlprojd: -rf > 1 requires -peers or -peers-file")
		return 2
	}
	if *rf > 1 && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "dlprojd: -rf > 1 requires -cache-dir (replication stores result envelopes)")
		return 2
	}

	srv := serve.New(serve.Config{
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		SimWorkers:      *simWorkers,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		DrainBudget:     *drainBudget,
		DrainGrace:      *drainGrace,
		RetryAfter:      *retryAfter,
		CacheDir:        *cacheDir,
		Store:           st,
		Cluster:         cl,
		Membership:      membership,
		MaxJobs:         *maxJobs,
		Obs:             tr,
		Logger:          logger,
	})

	if membership != nil {
		// SIGHUP re-reads the peers file and swaps the ring — the signal
		// twin of POST /v1/cluster/reload. Kept off sigctx: HUP must never
		// trigger (or count toward) a drain.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if _, err := srv.ReloadMembership(); err != nil {
					logger.Error("SIGHUP membership reload failed", "error", err)
				}
			}
		}()
	}

	hs := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlprojd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "dlprojd: serving on http://%s (queue %d, %d workers)\n",
		ln.Addr(), *queueDepth, *workers)

	// First SIGINT/SIGTERM starts the graceful drain below; a second
	// forces immediate exit.
	ctx, stop := sigctx.Notify(context.Background())
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener died before any signal: that's a failure, not a drain.
		fmt.Fprintln(os.Stderr, "dlprojd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "dlprojd: signal received, draining (second signal forces exit)")
	// Drain the job layer first (readiness off, jobs finish or are
	// cancelled), then shut the HTTP listener down. The HTTP shutdown
	// budget rides on top of the drain budget so status polls keep working
	// while jobs wind down.
	rep := srv.Drain(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		_ = hs.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dlprojd:", err)
		return 1
	}

	if rep.Clean() {
		fmt.Fprintf(os.Stderr, "dlprojd: drained cleanly in %v\n", rep.Waited.Round(time.Millisecond))
		return 0
	}
	fmt.Fprintf(os.Stderr, "dlprojd: drain cancelled %d job(s) after %v (forced=%v)\n",
		len(rep.Cancelled), rep.Waited.Round(time.Millisecond), rep.Forced)
	return 4
}
