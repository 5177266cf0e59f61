// Command hservd serves the partitioning methodology over HTTP — one warm
// process that many clients share instead of recompiling per invocation.
// It fronts the Engine with a bounded content-addressed result cache and
// request coalescing (see internal/server), so repeated or concurrent
// identical requests cost one compile+profile+partition.
//
// Usage:
//
//	hservd -addr :8080 -workers 8 -cache 512 -timeout 2m -profile-memo 128
//
// Endpoints: POST /v1/partition, POST /v1/partition-energy, POST /v1/sweep
// (SSE progress with Accept: text/event-stream), POST /v1/simulate,
// GET /healthz, GET /v1/presets, GET /debug/stats, GET /metrics (Prometheus
// text). -profile-memo bounds the process-wide benchmark profile memo
// ((bench, seed) entries; 0 lifts the bound for trusted deployments) and
// /debug/stats reports its population.
//
// Fleet and persistence knobs:
//
//	-cache-dir DIR       persist results on disk (content-addressed, LRU
//	                     evicted at -cache-disk-mb) so a restart serves its
//	                     first repeat request as a hit
//	-self URL -peers A,B fingerprint-sharded peer routing over a consistent
//	                     ring: requests another replica owns are forwarded
//	                     there, so N replicas keep one copy of each result
//	-max-sim-cost N      admission budget in simulated-cost units per second;
//	                     sim-scored bursts over it are shed with 429
//
// Observability knobs:
//
//	-trace-ring N        keep up to N sampled request traces in memory (the
//	                     error and slow traces are extra), served by
//	                     GET /debug/traces and /debug/traces/{id} (Chrome
//	                     trace-event JSON, Perfetto-loadable); 0 disables
//	                     tracing entirely
//	-trace-keep-slow K   tail-sampled retention: always keep error traces and
//	                     the K slowest per endpoint (K >= 1), sample the
//	                     unremarkable rest into the ring
//	-telemetry-interval D sample runtime/metrics (heap, GC, goroutines, sched
//	                     latency) plus service-counter deltas every D into a
//	                     bounded ring, served by GET /debug/telemetry and as
//	                     /metrics gauges (0 = off)
//	-slow-ms N           log one structured summary line for every request
//	                     slower than N milliseconds (0 = off)
//	-debug-addr ADDR     serve net/http/pprof on a second listener, never on
//	                     the serving mux (e.g. -debug-addr 127.0.0.1:6060)
//
// Logs are structured (log/slog, text format, one line per event).
//
// SIGINT or SIGTERM drains in-flight requests (including forwards) and
// shuts the listener down gracefully. Invalid flags exit 2.
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
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hybridpart"
	"hybridpart/internal/cluster"
	"hybridpart/internal/obs"
	"hybridpart/internal/server"
	"hybridpart/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port)")
	workers := flag.Int("workers", 0, "bound on each sweep's worker pool (0 = no bound, GOMAXPROCS default)")
	cacheCap := flag.Int("cache", 256, "result-cache capacity in entries (in-memory store)")
	cacheDir := flag.String("cache-dir", "", "persist results in this directory (disk-backed store; survives restarts)")
	cacheDiskMB := flag.Int("cache-disk-mb", 64, "disk store bound in MiB (with -cache-dir)")
	timeout := flag.Duration("timeout", time.Minute, "per-request run timeout (0 = unbounded)")
	profileMemo := flag.Int("profile-memo", hybridpart.DefaultProfileMemoBound,
		"benchmark profile memo bound in (bench, seed) entries; 0 = unbounded, for trusted deployments")
	self := flag.String("self", "", "this replica's base URL as peers reach it (fleet mode, with -peers)")
	peers := flag.String("peers", "", "comma-separated base URLs of every replica, -self included (fleet mode)")
	forwardTimeout := flag.Duration("forward-timeout", 0, "per-forward deadline before falling back to local compute in fleet mode (0 = 2s default)")
	maxSimCost := flag.Int("max-sim-cost", 0, "admission budget in simulated-cost units per second (0 = no admission control)")
	traceRing := flag.Int("trace-ring", 256, "finished request traces kept for GET /debug/traces (0 = tracing off)")
	traceKeepSlow := flag.Int("trace-keep-slow", 4, "always keep error traces and this many slowest per endpoint, sampling the rest (at least 1)")
	telemetryInterval := flag.Duration("telemetry-interval", 10*time.Second, "runtime telemetry sampling interval for GET /debug/telemetry (0 = off)")
	slowMS := flag.Int("slow-ms", 0, "log a structured summary line for requests slower than this many milliseconds (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this second listener (empty = off; never on the serving mux)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *cacheCap <= 0 {
		fail(fmt.Sprintf("-cache must be positive, got %d", *cacheCap))
	}
	if *workers < 0 {
		fail(fmt.Sprintf("-workers must be non-negative, got %d", *workers))
	}
	if *timeout < 0 {
		fail(fmt.Sprintf("-timeout must be non-negative, got %v", *timeout))
	}
	if *forwardTimeout < 0 {
		fail(fmt.Sprintf("-forward-timeout must be non-negative, got %v", *forwardTimeout))
	}
	if *maxSimCost < 0 {
		fail(fmt.Sprintf("-max-sim-cost must be non-negative, got %d", *maxSimCost))
	}
	if *traceRing < 0 {
		fail(fmt.Sprintf("-trace-ring must be non-negative, got %d", *traceRing))
	}
	if *traceKeepSlow < 1 {
		fail(fmt.Sprintf("-trace-keep-slow must be at least 1, got %d", *traceKeepSlow))
	}
	if *telemetryInterval < 0 {
		fail(fmt.Sprintf("-telemetry-interval must be non-negative, got %v", *telemetryInterval))
	}
	if *slowMS < 0 {
		fail(fmt.Sprintf("-slow-ms must be non-negative, got %d", *slowMS))
	}
	if *debugAddr != "" && *debugAddr == *addr {
		fail("-debug-addr must differ from -addr: pprof never rides the serving mux")
	}
	if err := hybridpart.SetProfileMemoBound(*profileMemo); err != nil {
		fail(fmt.Sprintf("-profile-memo: %v", err))
	}
	peerList, err := validateFleet(*self, *peers)
	if err != nil {
		fail(err.Error())
	}

	cfg := server.Config{
		CacheCapacity:     *cacheCap,
		Workers:           *workers,
		Timeout:           *timeout,
		Self:              *self,
		Peers:             peerList,
		ForwardTimeout:    *forwardTimeout,
		MaxSimCost:        *maxSimCost,
		Logger:            logger,
		SlowThreshold:     time.Duration(*slowMS) * time.Millisecond,
		TelemetryInterval: *telemetryInterval,
	}
	if *traceRing > 0 {
		// The service name labels this replica's process row in merged
		// Perfetto traces; the self URL is the only fleet-unique name.
		service := *self
		if service == "" {
			service = "hservd"
		}
		cfg.Tracer = obs.New(obs.Config{Service: service, RingSize: *traceRing, KeepSlow: *traceKeepSlow})
	}
	var disk *store.Disk
	if *cacheDir != "" {
		if *cacheDiskMB <= 0 {
			fail(fmt.Sprintf("-cache-disk-mb must be positive, got %d", *cacheDiskMB))
		}
		if err := validateCacheDir(*cacheDir); err != nil {
			fail(err.Error())
		}
		if disk, err = store.OpenDisk(*cacheDir, int64(*cacheDiskMB)<<20); err != nil {
			fail(fmt.Sprintf("-cache-dir: %v", err))
		}
		cfg.Store = disk
	}
	// closeStore flushes the disk index; it must run on every exit path
	// that follows OpenDisk, or the next start loses the LRU order.
	closeStore := func() {
		if disk == nil {
			return
		}
		if err := disk.Close(); err != nil {
			logger.Error("closing disk store", "error", err)
		}
	}

	// SIGINT/SIGTERM cancel this context, which starts the graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Request contexts are decoupled from the signal context: cancelling
	// them at the signal would abort the very in-flight runs (and peer
	// forwards) the drain below exists to finish. They are cancelled only
	// when the drain window expires.
	runCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()

	app := server.New(cfg)
	// app.Close stops the telemetry collector goroutine; like closeStore it
	// must run on every exit path that follows New.
	defer app.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           app,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return runCtx },
	}

	// Listen before announcing, so ":0" logs the real port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err.Error())
	}
	mode := fmt.Sprintf("cache %d entries", *cacheCap)
	if disk != nil {
		mode = fmt.Sprintf("disk cache %s (%d MiB)", *cacheDir, *cacheDiskMB)
	}
	if len(peerList) > 0 {
		mode += fmt.Sprintf(", fleet of %d (self %s)", len(peerList), *self)
	}
	if *maxSimCost > 0 {
		mode += fmt.Sprintf(", admission %d units/s", *maxSimCost)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "mode", mode,
		"timeout", timeout.String(), "trace_ring", *traceRing, "trace_keep_slow", *traceKeepSlow,
		"telemetry_interval", telemetryInterval.String(), "slow_ms", *slowMS)

	// The pprof listener is opt-in and always separate from the serving
	// mux: profiling endpoints on a public address are an information leak
	// and a DoS lever, so they bind to their own (typically loopback)
	// address with an explicit mux that carries nothing else.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(fmt.Sprintf("-debug-addr: %v", err))
		}
		debugSrv = &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		logger.Info("pprof listening", "addr", dln.Addr().String())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}
	closeDebug := func() {
		if debugSrv != nil {
			debugSrv.Close()
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		closeDebug()
		closeStore()
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err.Error())
		}
	case <-ctx.Done():
		logger.Info("signal received, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// If the drain window expires, cancel the remaining runs so
		// Shutdown's error path is reached promptly rather than hanging
		// on an engine run that ignores the listener closing.
		stopKill := context.AfterFunc(shutdownCtx, cancelRuns)
		defer stopKill()
		err := srv.Shutdown(shutdownCtx)
		closeDebug()
		closeStore()
		if err != nil {
			logger.Error("forced shutdown", "error", err)
			os.Exit(1)
		}
		logger.Info("bye")
	}
}

// validateFleet checks the -self/-peers pair and returns the parsed peer
// list: both flags or neither, every URL well-formed (http/https scheme and
// a host), and -self a member of -peers.
func validateFleet(self, peers string) ([]string, error) {
	if (self == "") != (peers == "") {
		return nil, errors.New("-self and -peers must be given together")
	}
	if self == "" {
		return nil, nil
	}
	if err := validatePeerURL(self); err != nil {
		return nil, fmt.Errorf("-self: %w", err)
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if err := validatePeerURL(p); err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		list = append(list, p)
	}
	if len(list) == 0 {
		return nil, errors.New("-peers names no replicas")
	}
	if !cluster.NewRing(list, 0).Contains(self) {
		return nil, fmt.Errorf("-self %s is not in -peers %s", self, peers)
	}
	return list, nil
}

// validatePeerURL rejects replica URLs the forwarder could not use.
func validatePeerURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("malformed URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("URL %q must use http or https", raw)
	}
	if u.Host == "" {
		return fmt.Errorf("URL %q has no host", raw)
	}
	return nil
}

// validateCacheDir requires an existing, writable directory — failing at
// startup with a clear message beats failing on the first eviction.
func validateCacheDir(dir string) error {
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("-cache-dir: %v", err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("-cache-dir %s is not a directory", dir)
	}
	probe := filepath.Join(dir, ".hservd-writable")
	f, err := os.Create(probe)
	if err != nil {
		return fmt.Errorf("-cache-dir %s is not writable: %v", dir, err)
	}
	f.Close()
	os.Remove(probe)
	return nil
}

func fail(msg string) {
	fmt.Fprintf(os.Stderr, "hservd: %s\n", msg)
	os.Exit(2)
}
