package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	diospyros "diospyros"
	"diospyros/internal/loadgen"
	"diospyros/internal/serve"
)

// serveOptions is the compile configuration of the serve-mix server and
// of the direct reference compiles its responses are checked against.
var serveOptions = diospyros.Options{Targets: []string{"fg3lite-4"}, MatchWorkers: 1}

const (
	// roundPerKernel is how often each mix kernel appears in one round of
	// requests; roundSalted of those carry a unique comment that forces a
	// cache miss. A round is a seeded permutation of this fixed multiset,
	// so every round does the same work and the run never cuts a request.
	roundPerKernel = 40
	roundSalted    = 10
	// warmPerKernel and warmSalted size the untimed warm-up round.
	warmPerKernel = 8
	warmSalted    = 2
	clientCount   = 2
	clientTimeout = 60 * time.Second
)

// mixKernel is one kernel of loadgen.BuiltinMix with the artifacts of a
// direct compile made during setup: every 200 response must carry exactly
// this C and assembly.
type mixKernel struct {
	cc  *compileCase
	ref *artifacts
}

// serveRun is an in-process internal/serve handler on a loopback listener,
// driven by clientCount closed-loop clients with one connection each.
type serveRun struct {
	kernels []*mixKernel
	rng     *rand.Rand
	tag     string // salt namespace; the server is fresh per run, so this only labels salts
	salts   int

	hs      *http.Server
	url     string
	served  chan error
	clients []*http.Client

	fails *failures
	reqs  []outcome // every timed request
	busy  float64   // summed wall time of the timed rounds
	alloc float64   // heap bytes allocated during the timed rounds
}

// outcome is one request as the client saw it. Phase durations come from
// the X-Dios-Server-Timing header, in milliseconds.
type outcome struct {
	kernel                            int
	latency                           float64 // seconds; +Inf when the request failed
	cause                             string  // "" when correct
	cache                             string  // X-Dios-Cache
	queue, lookup, compile, serialize float64
}

// setupServe makes the direct reference compiles, starts the server,
// prefills its cache with every unsalted kernel and sends one untimed
// warm-up round.
func setupServe(ctx context.Context, seed int64) (*serveRun, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &serveRun{rng: rng, tag: fmt.Sprintf("s%d", seed), fails: newFailures()}
	for _, k := range loadgen.BuiltinMix() {
		cc, err := interpCase(k.Name, k.Source, rng)
		if err != nil {
			return nil, err
		}
		res, err := diospyros.CompileSourceContext(ctx, k.Source, serveOptions)
		if err != nil {
			return nil, fmt.Errorf("%s: reference compile: %w", k.Name, err)
		}
		ref, cause := checkResult(cc, res, false)
		if cause != "" {
			return nil, fmt.Errorf("%s: reference compile is wrong: %s", k.Name, cause)
		}
		s.kernels = append(s.kernels, &mixKernel{cc: cc, ref: ref})
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	prefill := make([]request, len(s.kernels))
	for i := range prefill {
		prefill[i] = request{kernel: i, source: s.kernels[i].cc.source}
	}
	// Like the compile workloads' warm-up, these requests are not counted:
	// attempted and failed cover the timed requests.
	s.round(ctx, append(prefill, s.drawRound(warmPerKernel, warmSalted)...))
	return s, nil
}

func (s *serveRun) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 64, Options: serveOptions})
	s.hs = &http.Server{Handler: srv.Handler()}
	s.url = "http://" + ln.Addr().String() + "/compile"
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < clientCount; i++ {
		s.clients = append(s.clients, &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *serveRun) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a connection still open after 10 s is closed by Close below
	_ = s.hs.Close()
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

type request struct {
	kernel int
	source string
}

// drawRound returns a seeded permutation of perKernel requests for every
// mix kernel, salted of each kernel's requests carrying a unique comment.
func (s *serveRun) drawRound(perKernel, salted int) []request {
	var reqs []request
	for k, mk := range s.kernels {
		for j := 0; j < perKernel; j++ {
			src := mk.cc.source
			if j < salted {
				s.salts++
				src += fmt.Sprintf("\n// perfbench salt %s-%d\n", s.tag, s.salts)
			}
			reqs = append(reqs, request{kernel: k, source: src})
		}
	}
	s.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// round sends reqs over the clients, each client sending its next request
// once the previous one has completed, and returns when all have.
func (s *serveRun) round(ctx context.Context, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = s.send(ctx, c, reqs[i])
			}
		}(c)
	}
	wg.Wait()
	return out
}

// timedRound sends one balanced round and records it.
func (s *serveRun) timedRound(ctx context.Context) {
	reqs := s.drawRound(roundPerKernel, roundSalted)
	before := readRuntime()
	start := time.Now()
	out := s.round(ctx, reqs)
	s.busy += time.Since(start).Seconds()
	s.alloc += readRuntime().allocSince(before)
	s.reqs = append(s.reqs, out...)
	for _, o := range out {
		s.fails.attempt()
		if o.cause != "" {
			s.fails.add(o.cause)
		}
	}
}

// send posts one request and checks the response against the kernel's
// reference compile.
func (s *serveRun) send(ctx context.Context, c *http.Client, r request) outcome {
	o := outcome{kernel: r.kernel, latency: math.Inf(1)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, strings.NewReader(r.source))
	if err != nil {
		o.cause = "transport"
		return o
	}
	req.Header.Set("Content-Type", "text/plain")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		o.cause = transportCause(err)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(start).Seconds()
	if err != nil {
		o.cause = transportCause(err)
		return o
	}
	o.cache = resp.Header.Get("X-Dios-Cache")
	o.queue, o.lookup, o.compile, o.serialize = serverTiming(resp.Header.Get("X-Dios-Server-Timing"))
	o.cause = checkResponse(resp.StatusCode, body, s.kernels[r.kernel].ref)
	if o.cause == "" {
		o.latency = latency
	}
	return o
}

// checkResponse classifies a response: "" when it is a 200 whose C and
// assembly equal the reference compile's (a salt comment must not change
// them), otherwise the failure cause.
func checkResponse(status int, body []byte, ref *artifacts) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status_%d", status)
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "decode"
	}
	if resp.C != ref.c[0] || resp.Assembly != ref.asm[0] {
		return "c_mismatch"
	}
	return ""
}

func transportCause(err error) string {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return "timeout"
	}
	return "transport"
}

// serverTiming parses "queue;dur=0.012, cache;dur=0.004, compile;dur=41.2,
// serialize;dur=0.187" (milliseconds). Missing phases read as 0.
func serverTiming(h string) (queue, lookup, compile, serialize float64) {
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		switch name {
		case "queue":
			queue = v
		case "cache":
			lookup = v
		case "compile":
			compile = v
		case "serialize":
			serialize = v
		}
	}
	return
}

// missCompileMS returns, per mix kernel, the server's compile phase of
// every correct miss (the pipeline run), in milliseconds.
func (s *serveRun) missCompileMS() [][]float64 {
	out := make([][]float64, len(s.kernels))
	for _, o := range s.reqs {
		if o.cause == "" && o.cache == "miss" {
			out[o.kernel] = append(out[o.kernel], o.compile)
		}
	}
	return out
}

// endToEnd computes serve-mix's end-to-end metrics. compile_s and
// compile_ms_geomean use the server's compile phase on misses; egraph_mb,
// cycles_geomean and code_instrs describe the programs served, from the
// setup's reference compiles.
func (s *serveRun) endToEnd() []metric {
	var compileS float64
	var perKernelMS, cycles, lat []float64
	var egraphB float64
	var instrs, misses int
	for k, ms := range s.missCompileMS() {
		if len(ms) > 0 {
			compileS += median(ms) / 1000
			perKernelMS = append(perKernelMS, median(ms))
			misses += len(ms)
		}
		ref := s.kernels[k].ref
		egraphB += float64(ref.peak)
		cycles = append(cycles, float64(ref.cycles[0]))
		instrs += ref.instrs[0]
	}
	n, ok := len(s.reqs), 0
	for _, o := range s.reqs {
		lat = append(lat, 1000*o.latency)
		if o.cause == "" {
			ok++
		}
	}
	return []metric{
		{"compile_s", "s", compileS, misses},
		{"compile_ms_geomean", "ms", geomean(perKernelMS), misses},
		{"alloc_mb", "MB", s.alloc / float64(max(n, 1)) / 1e6, n},
		{"egraph_mb", "MB", egraphB / 1e6, 1},
		{"cycles_geomean", "cycles", geomean(cycles), len(cycles)},
		{"code_instrs", "instrs", float64(instrs), len(cycles)},
		{"throughput_rps", "req/s", float64(ok) / s.busy, n},
		{"latency_ms_p50", "ms", quantile(lat, 0.5), n},
		{"latency_ms_p99", "ms", quantile(lat, 0.99), n},
	}
}

// serveLayer computes the serve layer's metrics from the response headers.
// Queue quantiles are over misses, the only requests that enter admission
// (hits answer before it). Client time is the round trip minus the
// server's four phases.
func (s *serveRun) serveLayer() []metric {
	var queue, compile, serialize, client []float64
	hits, coalesced, ok := 0, 0, 0
	for _, o := range s.reqs {
		if o.cause != "" {
			continue
		}
		ok++
		switch o.cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		case "miss":
			queue = append(queue, o.queue)
			compile = append(compile, o.compile)
		}
		serialize = append(serialize, o.serialize)
		client = append(client, 1000*o.latency-o.queue-o.lookup-o.compile-o.serialize)
	}
	hitRatio := 0.0
	if ok > 0 {
		hitRatio = float64(hits) / float64(ok)
	}
	return []metric{
		{"serve.hit_ratio", "ratio", hitRatio, ok},
		{"serve.coalesced", "count", float64(coalesced), ok},
		{"serve.queue_ms_p50", "ms", quantile(queue, 0.5), len(queue)},
		{"serve.queue_ms_p99", "ms", quantile(queue, 0.99), len(queue)},
		{"serve.compile_ms_p99", "ms", quantile(compile, 0.99), len(compile)},
		{"serve.serialize_ms_p50", "ms", median(serialize), len(serialize)},
		{"serve.client_ms_p50", "ms", median(client), len(client)},
	}
}

// mixCases returns the mix kernels as compile cases, for the traced run's
// layer passes over the miss path.
func (s *serveRun) mixCases() []*compileCase {
	out := make([]*compileCase, len(s.kernels))
	for i, k := range s.kernels {
		out[i] = k.cc
	}
	return out
}
