// Package serve is the long-running HTTP compile service on top of the
// staged pipeline: a bounded worker pool compiling kernels submitted to
// POST /compile, with live observability as a first-class concern —
//
//   - GET /metrics: a Prometheus scrape endpoint backed by a
//     telemetry.Registry aggregating counters, gauges, and latency
//     histograms across requests (in-flight compiles, queue depth,
//     per-stage latency, e-graph high-water marks, cancellations, and
//     saturation stop/abort reasons);
//   - structured per-request logs: every request gets an ID that threads
//     through the pipeline's context, so stage-level slog lines correlate
//     with the response;
//   - GET /traces: the last completed compiles as one Chrome trace-event
//     file, one thread lane per request (traces.go);
//   - GET /debug/pprof/...: live CPU/heap/goroutine profiles;
//   - GET /healthz and /readyz: liveness and readiness probes;
//   - a saturation watchdog per request (watchdog.go) sampling the running
//     e-graph's gauges and aborting compiles that blow a node or
//     wall-clock budget;
//   - a content-addressed compile cache (cache.go): repeat requests with
//     identical normalized source and output-affecting options are served
//     from a byte-budgeted LRU, concurrent identical requests coalesce
//     into one compile, and the X-Dios-Cache response header reports the
//     outcome (hit, miss, coalesced);
//   - a per-request phase breakdown (phases.go): queue-wait, cache-lookup,
//     compile, and serialize spans on every compile, exposed three ways —
//     the diospyros_serve_phase_seconds{phase} and
//     diospyros_serve_compile_seconds{cache} histograms, the
//     X-Dios-Server-Timing response header, and the X-Dios-Queue-Wait-Ms
//     header feeding the diosload soak harness.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	diospyros "diospyros"
	"diospyros/internal/buildinfo"
	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

// Config parameterizes a Server. The zero value serves with sane defaults:
// GOMAXPROCS workers, a 64-deep admission queue, a 120 s request deadline,
// and no watchdog budgets.
type Config struct {
	// Workers bounds concurrent compiles. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it the
	// server sheds load with 503. 0 means 64; negative means no queue
	// (immediate 503 when all workers are busy).
	QueueDepth int
	// RequestTimeout bounds one compile end to end. 0 means 120 s;
	// negative means no deadline.
	RequestTimeout time.Duration
	// WatchdogNodes aborts a compile whose e-graph exceeds this many
	// nodes. 0 disables the node budget.
	WatchdogNodes int
	// WatchdogWall aborts a compile running longer than this. 0 disables
	// the wall budget.
	WatchdogWall time.Duration
	// WatchdogHeap aborts a compile once the process's live heap
	// (runtime/metrics objects bytes) exceeds this many bytes — the budget
	// guarding the resource that actually OOMs a replica. 0 disables the
	// heap budget.
	WatchdogHeap int64
	// WatchdogPoll is the watchdog sampling interval. 0 means 10 ms.
	WatchdogPoll time.Duration
	// StreamHeartbeat is the SSE keep-alive comment interval for streaming
	// compiles (stream.go). 0 means 15 s.
	StreamHeartbeat time.Duration
	// TraceLog bounds how many completed request traces the server retains
	// for GET /traces (traces.go). 0 means 64; negative disables retention.
	TraceLog int
	// CacheBytes budgets the content-addressed compile cache (cache.go):
	// repeat POST /compile requests with identical normalized source and
	// output-affecting options are served from memory, and concurrent
	// identical requests are coalesced into one compile. 0 means 64 MiB;
	// negative disables the cache.
	CacheBytes int64
	// Options is the base compile configuration; per-request fields
	// (timeout, ablations, validation) may override it.
	Options diospyros.Options
	// Logger receives structured request and stage logs. nil means no
	// logging.
	Logger *slog.Logger
	// Registry receives live metrics. nil means New creates one.
	Registry *telemetry.Registry
}

// Server is the compile service. Create with New, expose via Handler.
type Server struct {
	cfg    Config
	log    *slog.Logger
	reg    *telemetry.Registry
	slots  chan struct{}
	traces *traceRing
	cache  *compileCache // nil when Config.CacheBytes < 0

	queued   atomic.Int64
	inFlight atomic.Int64
	seq      atomic.Uint64
	ready    atomic.Bool

	// compileFn is the compile entry point, injectable in tests.
	compileFn func(ctx context.Context, src string, opts diospyros.Options) (*diospyros.Result, error)
}

// New builds a Server from cfg, applying defaults. The server starts
// ready; SetReady(false) drains it from load balancers before shutdown.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = 120 * time.Second
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0
	}
	if cfg.WatchdogPoll <= 0 {
		cfg.WatchdogPoll = 10 * time.Millisecond
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 15 * time.Second
	}
	if cfg.TraceLog == 0 {
		cfg.TraceLog = 64
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NewLogger(io.Discard, slog.LevelError, false)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// A long-running compile service wants its own runtime on the scrape:
	// goroutines, heap in use, and GC pauses alongside the compile metrics.
	reg.EnableRuntimeMetrics()
	s := &Server{
		cfg:       cfg,
		log:       log,
		reg:       reg,
		slots:     make(chan struct{}, cfg.Workers),
		traces:    newTraceRing(cfg.TraceLog),
		compileFn: diospyros.CompileSourceContext,
	}
	if cfg.CacheBytes > 0 {
		s.cache = newCompileCache(cfg.CacheBytes)
	}
	s.ready.Store(true)
	s.reg.GaugeSet("diospyros_serve_workers", "Configured worker slots.", nil, float64(cfg.Workers))
	// The build-info gauge ties every scrape (and thus every soak result)
	// to the exact build serving it.
	s.reg.GaugeSet("diospyros_build_info",
		"Build identity of this server; always 1, the labels carry the information.",
		buildinfo.MetricLabels(), 1)
	return s
}

// Registry returns the server's live metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// SetReady flips the /readyz probe — false drains traffic before shutdown.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the service's HTTP handler: /compile, /metrics,
// /healthz, /readyz, and /debug/pprof, all wrapped in request logging and
// request-rate metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.Handle("GET /metrics", s.reg)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		_, _ = io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the SSE stream (stream.go) still
// sees a flushable connection through the instrumentation layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with per-request structured logging and the
// request-rate metrics every endpoint shares.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r%08x", s.seq.Add(1))
		ctx := telemetry.WithRequestID(telemetry.WithLogger(r.Context(), s.log), id)
		w.Header().Set("X-Request-Id", id)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		labels := map[string]string{"path": r.URL.Path, "code": strconv.Itoa(sw.code)}
		s.reg.CounterAdd("diospyros_serve_requests_total",
			"HTTP requests by path and status code.", labels, 1)
		s.reg.Observe("diospyros_serve_request_duration_seconds",
			"HTTP request latency by path.",
			map[string]string{"path": r.URL.Path}, nil, elapsed.Seconds())

		log := telemetry.LoggerFrom(ctx)
		level := slog.LevelDebug // probe/scrape endpoints are noise at info
		if r.URL.Path == "/compile" {
			level = slog.LevelInfo
		}
		log.Log(ctx, level, "request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "duration", elapsed)
	})
}

// CompileRequest is the JSON body of POST /compile (Content-Type
// application/json). Any other content type is treated as raw kernel
// source in the imperative kernel language.
type CompileRequest struct {
	// Source is the kernel in the imperative text language.
	Source string `json:"source"`
	// TimeoutMS overrides the saturation timeout, in milliseconds.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoVector disables vector rewrite rules (the scalar ablation).
	NoVector bool `json:"no_vector,omitempty"`
	// Validate runs translation validation on the result.
	Validate bool `json:"validate,omitempty"`
	// Explain attaches the rewrite-provenance report to the trace.
	Explain bool `json:"explain,omitempty"`
	// Targets names the machine targets to compile for ("fg3lite-4",
	// "fg3lite-8", "scalar", ...). One saturation search serves every
	// target; the first is the primary that fills the top-level C/Assembly
	// fields, and per-target artifacts land in the response's "targets"
	// list. Empty means the server's default target.
	Targets []string `json:"targets,omitempty"`
}

// TargetProgram is one target's artifacts in a multi-target compile reply.
type TargetProgram struct {
	Target    string  `json:"target"`
	Width     int     `json:"width"`
	Cost      float64 `json:"cost"`
	Cycles    int64   `json:"cycles,omitempty"`
	Validated bool    `json:"validated,omitempty"`
	C         string  `json:"c,omitempty"`
	Assembly  string  `json:"assembly,omitempty"`
}

// CompileResponse is the JSON reply of POST /compile. Trace is present
// whenever the pipeline ran at all — including failed, timed-out, and
// watchdog-aborted compiles — so clients always see where time went.
type CompileResponse struct {
	RequestID string           `json:"request_id"`
	Kernel    string           `json:"kernel,omitempty"`
	C         string           `json:"c,omitempty"`
	Assembly  string           `json:"assembly,omitempty"`
	Cost      float64          `json:"cost,omitempty"`
	Validated bool             `json:"validated,omitempty"`
	Trace     *telemetry.Trace `json:"trace,omitempty"`
	Error     string           `json:"error,omitempty"`
	// Aborted names the watchdog budget that killed the compile
	// ("node-budget", "heap-budget", "wall-budget"); empty otherwise.
	Aborted string `json:"aborted,omitempty"`
	// Targets carries per-target artifacts when the request asked for more
	// than one machine target.
	Targets []TargetProgram `json:"targets,omitempty"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	log := telemetry.LoggerFrom(ctx)
	id := telemetry.RequestID(ctx)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, http.StatusRequestEntityTooLarge, id, "request body too large")
		return
	}
	src, opts, err := s.parseRequest(r, body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, id, err.Error())
		return
	}
	ph := &requestPhases{}

	// Content-addressed compile cache (cache.go): a hit or a coalesced
	// result answers before admission, without taking a worker slot. A miss
	// makes this request the flight's leader, which publishes its result
	// before writing the response, so a client repeating the request at
	// once hits the cache. On every early return (shed, client gone, failed
	// compile) the deferred publish(nil) releases the followers to compile
	// for themselves instead.
	publish := func(*diospyros.Result) {}
	if s.cache != nil && !wantsStream(r) && cacheableRequest(opts) {
		flightKey := compileCacheKey(src, opts)
		lookupStart := time.Now()
		res, fl, state := s.cache.acquire(flightKey)
		ph.CacheLookup = time.Since(lookupStart)
		switch state {
		case cacheHit:
			// A hit's "compile" latency is the lookup itself — what the
			// cache-outcome histogram label makes visible.
			ph.Compile = ph.CacheLookup
			s.serveCached(w, r, id, res, "hit", ph)
			return
		case cacheFollower:
			waitStart := time.Now()
			res := fl.wait(ctx)
			ph.Compile = time.Since(waitStart)
			if res != nil {
				s.serveCached(w, r, id, res, "coalesced", ph)
				return
			}
			if ctx.Err() != nil {
				s.countCancelled("coalesced")
				s.writeError(w, httpStatusClientClosedRequest, id, "client went away while awaiting a coalesced compile")
				return
			}
			// The leader failed; fall through and compile independently.
			ph.Compile = 0
		case cacheLeader:
			published := false
			publish = func(res *diospyros.Result) {
				if published {
					return
				}
				published = true
				if evicted := s.cache.finish(flightKey, fl, res); evicted > 0 {
					s.cacheCount("evictions", float64(evicted))
				}
				s.reg.GaugeSet("diospyros_serve_cache_bytes",
					"Estimated bytes held by the compile cache.", nil,
					float64(s.cache.sizeBytes()))
			}
			defer publish(nil)
		}
		ph.Outcome = "miss"
		w.Header().Set("X-Dios-Cache", "miss")
		s.cacheCount("misses", 1)
	}

	// Admission: take a free worker slot if one is available, otherwise
	// queue up to QueueDepth waiters and shed the rest with 503, watching
	// for the client to give up while queued. The wait is recorded on
	// every outcome — including sheds, so a client holding a 503 can see
	// the queue was genuinely full rather than slow.
	admission := time.Now()
	select {
	case s.slots <- struct{}{}:
		ph.QueueWait = time.Since(admission)
	default:
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			ph.QueueWait = time.Since(admission)
			s.reg.CounterAdd("diospyros_serve_rejected_total",
				"Requests shed by admission control.",
				map[string]string{"reason": "queue_full"}, 1)
			s.reg.Observe("diospyros_serve_queue_wait_seconds",
				"Admission-queue wait per request.", nil, nil, ph.QueueWait.Seconds())
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Dios-Queue-Wait-Ms", ph.queueWaitHeader())
			s.writeError(w, http.StatusServiceUnavailable, id, "compile queue full")
			return
		}
		s.setQueueGauge()
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
			s.setQueueGauge()
			ph.QueueWait = time.Since(admission)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.setQueueGauge()
			ph.QueueWait = time.Since(admission)
			s.reg.Observe("diospyros_serve_queue_wait_seconds",
				"Admission-queue wait per request.", nil, nil, ph.QueueWait.Seconds())
			s.countCancelled("queued")
			s.writeError(w, httpStatusClientClosedRequest, id, "client went away while queued")
			return
		}
	}
	defer func() { <-s.slots }() // release the worker slot on every path
	// The wait is known before any response bytes flow, so even the SSE
	// path (which commits its headers before compiling) can carry it.
	w.Header().Set("X-Dios-Queue-Wait-Ms", ph.queueWaitHeader())

	s.reg.GaugeAdd("diospyros_serve_compiles_in_flight",
		"Compiles currently executing.", nil, 1)
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		s.reg.GaugeAdd("diospyros_serve_compiles_in_flight",
			"Compiles currently executing.", nil, -1)
	}()

	// Per-request compile context: deadline, cancellation cause for the
	// watchdog, and the live e-graph gauge feed it samples.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if s.cfg.RequestTimeout > 0 {
		var cancelT context.CancelFunc
		cctx, cancelT = context.WithTimeout(cctx, s.cfg.RequestTimeout)
		defer cancelT()
	}
	prog := &egraph.Progress{}
	opts.Progress = prog
	stopWatch := s.startWatchdog(cctx, prog, cancel, log)
	defer stopWatch()

	if wantsStream(r) && s.streamCompile(w, r, cctx, id, src, opts) {
		// SSE commits its headers before the compile runs, so the stream
		// carries the queue wait (set above) but no full phase header; the
		// queue-wait histogram still sees the request.
		s.reg.Observe("diospyros_serve_queue_wait_seconds",
			"Admission-queue wait per request.", nil, nil, ph.QueueWait.Seconds())
		return
	}

	log.Info("compile start", "bytes", len(src))
	started := time.Now()
	res, err := s.compileFn(cctx, src, opts)
	ph.Compile = time.Since(started)
	stopWatch()

	var trace *telemetry.Trace
	if res != nil {
		trace = res.Trace
		s.observeCompile(trace)
		s.traces.record(id, kernelName(res), started, trace)
	}
	if err != nil {
		resp, code := s.classifyError(r, id, err, trace)
		s.writePhased(w, code, resp, ph)
		return
	}
	publish(res) // to the cache and any coalesced followers
	resp := s.successResponse(r, id, res)
	s.writePhased(w, http.StatusOK, resp, ph)
}

// serveCached answers a compile request from a cached Result, marking the
// response with how the cache resolved it ("hit" or "coalesced"). Cached
// responses skip trace aggregation — the pipeline did not run — but still
// carry the phase breakdown, whose compile phase is the lookup (hit) or
// the coalesced wait (follower).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, id string, res *diospyros.Result, how string, ph *requestPhases) {
	ph.Outcome = how
	w.Header().Set("X-Dios-Cache", how)
	w.Header().Set("X-Dios-Queue-Wait-Ms", ph.queueWaitHeader())
	if how == "hit" {
		s.cacheCount("hits", 1)
	} else {
		s.cacheCount("coalesced", 1)
	}
	telemetry.LoggerFrom(r.Context()).Info("compile served from cache",
		"kernel", res.Kernel.Name, "cache", how)
	s.writePhased(w, http.StatusOK, s.successResponse(r, id, res), ph)
}

// writePhased is writeJSON with the per-request phase breakdown attached:
// it marshals the response (timing the serialize phase), stamps the
// X-Dios-Server-Timing header, folds the phases into the live histograms,
// and writes the body. Every compile response that got far enough to have
// phases funnels through here.
func (s *Server) writePhased(w http.ResponseWriter, code int, v any, ph *requestPhases) {
	serStart := time.Now()
	body, err := json.MarshalIndent(v, "", "  ")
	ph.Serialize = time.Since(serStart)
	if err != nil { // a Trace that cannot marshal; vanishingly unlikely
		s.writeError(w, http.StatusInternalServerError, "", "response marshalling failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Dios-Server-Timing", ph.timingHeader())
	ph.observe(s.reg)
	w.WriteHeader(code)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

// cacheCount bumps one of the diospyros_serve_cache_*_total counters.
func (s *Server) cacheCount(kind string, n float64) {
	help := map[string]string{
		"hits":      "Compiles served from the content-addressed cache.",
		"misses":    "Compiles that had to run because no cache entry matched.",
		"coalesced": "Compiles served by waiting on an identical in-flight request.",
		"evictions": "Cache entries evicted to respect the byte budget.",
	}[kind]
	s.reg.CounterAdd("diospyros_serve_cache_"+kind+"_total", help, nil, n)
}

// successResponse assembles the reply for a completed compile and logs it.
func (s *Server) successResponse(r *http.Request, id string, res *diospyros.Result) *CompileResponse {
	resp := &CompileResponse{
		RequestID: id,
		Kernel:    res.Kernel.Name,
		C:         res.C,
		Cost:      res.Cost,
		Validated: res.Validated,
		Trace:     res.Trace,
	}
	if res.Program != nil {
		resp.Assembly = res.Program.Disassemble()
	}
	if len(res.Targets) > 1 {
		for _, tr := range res.Targets {
			tp := TargetProgram{
				Target:    tr.Target,
				Width:     tr.Width,
				Cost:      tr.Cost,
				Cycles:    tr.Cycles,
				Validated: tr.Validated,
				C:         tr.C,
			}
			if tr.Program != nil {
				tp.Assembly = tr.Program.Disassemble()
			}
			resp.Targets = append(resp.Targets, tp)
		}
	}
	telemetry.LoggerFrom(r.Context()).Info("compile done",
		"kernel", resp.Kernel, "cost", res.Cost,
		"nodes", res.Saturation.Nodes, "stop", string(res.Saturation.Reason))
	return resp
}

// httpStatusClientClosedRequest is nginx's 499: the client disconnected
// before the response. There is no standard constant.
const httpStatusClientClosedRequest = 499

// classifyError maps a compile error to a response and status code,
// bumping the matching counters: watchdog aborts (422), server deadline
// (504), client cancellation (499), and plain compile failures (400). The
// partial trace still ships. The SSE path reuses the same classification,
// carrying the code in the final stream event instead of the HTTP status.
func (s *Server) classifyError(r *http.Request, id string, err error, trace *telemetry.Trace) (*CompileResponse, int) {
	log := telemetry.LoggerFrom(r.Context())
	resp := &CompileResponse{RequestID: id, Error: err.Error(), Trace: trace}

	var abort *telemetry.AbortError
	switch {
	case errors.As(err, &abort):
		resp.Aborted = abort.Reason
		s.reg.CounterAdd("diospyros_serve_saturation_aborts_total",
			"Compiles aborted by the saturation watchdog, by budget.",
			map[string]string{"reason": abort.Reason}, 1)
		log.Warn("compile aborted by watchdog", "reason", abort.Reason)
		return resp, http.StatusUnprocessableEntity
	case r.Context().Err() != nil:
		s.countCancelled("compiling")
		log.Info("compile cancelled by client")
		return resp, httpStatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.CounterAdd("diospyros_serve_timeouts_total",
			"Compiles that hit the server's request deadline.", nil, 1)
		log.Warn("compile hit request deadline", "err", err)
		return resp, http.StatusGatewayTimeout
	default:
		log.Warn("compile failed", "err", err)
		return resp, http.StatusBadRequest
	}
}

func (s *Server) setQueueGauge() {
	s.reg.GaugeSet("diospyros_serve_queue_depth",
		"Requests waiting for a worker slot.", nil, float64(s.queued.Load()))
}

func (s *Server) countCancelled(phase string) {
	s.reg.CounterAdd("diospyros_serve_cancelled_total",
		"Requests cancelled by the client, by phase.",
		map[string]string{"phase": phase}, 1)
}

// parseRequest extracts kernel source and per-request option overrides:
// JSON (CompileRequest) when the Content-Type says so, raw kernel source
// otherwise.
func (s *Server) parseRequest(r *http.Request, body []byte) (string, diospyros.Options, error) {
	opts := s.cfg.Options
	if ct := r.Header.Get("Content-Type"); ct == "application/json" {
		var req CompileRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", opts, fmt.Errorf("bad JSON request: %w", err)
		}
		if req.Source == "" {
			return "", opts, errors.New("missing \"source\" field")
		}
		if req.TimeoutMS > 0 {
			opts.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		opts.DisableVectorRules = opts.DisableVectorRules || req.NoVector
		opts.Validate = opts.Validate || req.Validate
		opts.Explain = opts.Explain || req.Explain
		if len(req.Targets) > 0 {
			opts.Targets = req.Targets
		}
		return req.Source, opts, nil
	}
	if len(body) == 0 {
		return "", opts, errors.New("empty request body")
	}
	return string(body), opts, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, id, msg string) {
	s.writeJSON(w, code, &CompileResponse{RequestID: id, Error: msg})
}
