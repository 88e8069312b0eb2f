// Command perfbench is the repository's benchmark. It runs one workload
// against the compiler from outside, checks every output against a
// reference that is not the compiler under test, and prints the
// workload's metrics: a table, then one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 perfbench/run.py --workload suite-serial --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the traced
// run's output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last setup is the one measured.
const setupRepeats = 3

// compileWorkload is a kernel set compiled one kernel at a time through
// the root API.
type compileWorkload struct {
	opts       diospyros.Options
	cases      func(root string, rng *rand.Rand) ([]*compileCase, error)
	withCycles bool // report kernel.<slug>.cycles rows
}

var compileWorkloads = map[string]compileWorkload{
	// The paper's Table-1 kernels through the builder API: saturate and
	// extract do nearly all the work.
	"suite-serial": {
		opts: diospyros.Options{Targets: []string{"fg3lite-4"}, MatchWorkers: 1},
		cases: func(root string, rng *rand.Rand) ([]*compileCase, error) {
			anchors, err := loadAnchors(root)
			if err != nil {
				return nil, err
			}
			return suiteCases(rng, anchors)
		},
		withCycles: true,
	},
	// Text-language kernels, three targets from one search, validated:
	// lift, per-target extraction, simulate and validate all run.
	"source-3target": {
		opts: diospyros.Options{
			Targets:      []string{"fg3lite-4", "fg3lite-8", "scalar"},
			Validate:     true,
			MatchWorkers: 2,
		},
		cases: sourceCases,
	},
}

const serveMix = "serve-mix"

func main() {
	workload := flag.String("workload", "", "suite-serial, source-3target or serve-mix")
	seed := flag.Int64("seed", 1, "draws simulation inputs, generated kernels and the request sequence")
	seconds := flag.Int("seconds", 10, "how long to measure, after setup")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: the traced run's per-layer metrics")
	root := flag.String("root", ".", "repository root (testdata/ and BENCH_PR7.json are read from it)")
	traceOut := flag.String("trace-out", "", "span file of the traced run (default .bench_build/traces/trace-<workload>-seed<seed>.json)")
	flag.Parse()
	_, isCompile := compileWorkloads[*workload]
	if (!isCompile && *workload != serveMix) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := runner{root: *root, seed: *seed, budget: time.Duration(*seconds) * time.Second, traceOut: *traceOut}
	var (
		ms  []metric
		f   *failures
		err error
	)
	switch {
	case *workload == serveMix && *traced == 0:
		ms, f, err = r.serveEndToEnd(ctx)
	case *workload == serveMix:
		ms, f, err = r.serveTraced(ctx)
	case *traced == 0:
		ms, f, err = r.compileEndToEnd(ctx, compileWorkloads[*workload])
	default:
		ms, f, err = r.compileTraced(ctx, compileWorkloads[*workload])
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}

	schema := endToEndSchema
	title := fmt.Sprintf("%s seed %d: end-to-end", *workload, *seed)
	if *traced == 1 {
		schema = perLayerSchema()
		title = fmt.Sprintf("%s seed %d: per layer (traced run; layers the workload does not run read 0)", *workload, *seed)
	}
	ms = complete(schema, ms)
	printTable(os.Stdout, title, ms)
	fmt.Printf("operations: %d attempted, %d failed (fail_frac %.4g); failures by cause: %s\n",
		f.attempted, f.failed(), float64(f.failed())/float64(max(f.attempted, 1)), f)
	if err := printResult(f, ms); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runner holds what every workload run needs.
type runner struct {
	root     string
	seed     int64
	budget   time.Duration
	traceOut string
}

// measure calls step until the budget has elapsed, at least once. The
// budget is checked only between steps, so no operation is cut short.
func (r runner) measure(ctx context.Context, step func()) {
	start := time.Now()
	for {
		step()
		if time.Since(start) >= r.budget || ctx.Err() != nil {
			return
		}
	}
}

// setupCompile builds the cases and warms the compiler up with one
// untimed pass.
func (r runner) setupCompile(ctx context.Context, w compileWorkload) (*compileRun, error) {
	cases, err := w.cases(r.root, rand.New(rand.NewSource(r.seed)))
	if err != nil {
		return nil, err
	}
	run := newCompileRun(w.opts, cases)
	run.warmUp(ctx)
	return run, nil
}

// repeatSetup runs setup setupRepeats times and returns the median time
// with the last setup's result; earlier results are released by discard.
func repeatSetup[T any](setup func() (T, error), discard func(T)) (T, metric, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, metric{}, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, metric{"setup_s", "s", median(times), len(times)}, nil
}

func (r runner) compileEndToEnd(ctx context.Context, w compileWorkload) ([]metric, *failures, error) {
	run, setup, err := repeatSetup(func() (*compileRun, error) { return r.setupCompile(ctx, w) }, func(*compileRun) {})
	if err != nil {
		return nil, nil, err
	}
	r.measure(ctx, func() { run.pass(ctx) })
	return append([]metric{setup}, run.endToEnd()...), run.fails, nil
}

// compileTraced alternates untraced and traced passes, so both see the
// same machine state, and writes the spans when the run ends.
func (r runner) compileTraced(ctx context.Context, w compileWorkload) ([]metric, *failures, error) {
	run, err := r.setupCompile(ctx, w)
	if err != nil {
		return nil, nil, err
	}
	t, lt := newTracer(), newLayerTrace(len(run.cases))
	r.measure(ctx, func() {
		run.pass(ctx)
		run.tracedPass(ctx, t, lt)
	})
	ms := append(run.layerMetrics(lt), run.perKernel(w.withCycles)...)
	return ms, run.fails, r.writeTrace(t, run, lt, ms)
}

func (r runner) serveEndToEnd(ctx context.Context) ([]metric, *failures, error) {
	s, setup, err := repeatSetup(func() (*serveRun, error) { return setupServe(ctx, r.seed) }, (*serveRun).stop)
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	r.measure(ctx, func() { s.timedRound(ctx) })
	return append([]metric{setup}, s.endToEnd()...), s.fails, nil
}

// serveTraced measures the serve layer from response headers, and the
// layers a miss runs by passes over the mix kernels with the server's
// options, untraced and traced.
func (r runner) serveTraced(ctx context.Context) ([]metric, *failures, error) {
	s, err := setupServe(ctx, r.seed)
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	run := newCompileRun(serveOptions, s.mixCases())
	run.warmUp(ctx)
	t, lt := newTracer(), newLayerTrace(len(run.cases))
	r.measure(ctx, func() {
		s.timedRound(ctx)
		run.pass(ctx)
		run.tracedPass(ctx, t, lt)
	})
	f := newFailures()
	f.merge(s.fails)
	f.merge(run.fails)
	ms := append(s.serveLayer(), run.layerMetrics(lt)...)
	return ms, f, r.writeTrace(t, run, lt, ms)
}

// writeTrace saves the spans with the run's per-layer metrics and the
// per-kernel agreement between outside-measured layer times and the
// compiler's own stage spans.
func (r runner) writeTrace(t *tracer, run *compileRun, lt *layerTrace, ms []metric) error {
	values := map[string]float64{}
	for _, m := range ms {
		values[m.Name] = m.Value
	}
	run.printAgreement(os.Stdout, lt)
	err := t.write(r.traceOut, map[string]any{
		"seed":    r.seed,
		"metrics": values,
		// kernel -> layer -> [outside-measured self s, compiler stage span s]
		"stage_agreement": run.stageAgreement(lt),
	})
	if err == nil {
		fmt.Printf("spans: %d written to %s\n", len(t.spans), r.traceOut)
	}
	return err
}

// endToEndSchema is the end-to-end metric list of BENCHMARK.json. Every
// workload reports every one of them.
var endToEndSchema = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "compile_s", Unit: "s"},
	{Name: "compile_ms_geomean", Unit: "ms"},
	{Name: "alloc_mb", Unit: "MB"},
	{Name: "egraph_mb", Unit: "MB"},
	{Name: "cycles_geomean", Unit: "cycles"},
	{Name: "code_instrs", Unit: "instrs"},
	{Name: "throughput_rps", Unit: "req/s"},
	{Name: "latency_ms_p50", Unit: "ms"},
	{Name: "latency_ms_p99", Unit: "ms"},
}

// perLayerSchema is the per-layer metric list of BENCHMARK.json: the layer
// metrics, then one compile_ms row per compile-workload kernel and one
// cycles row per suite kernel.
func perLayerSchema() []metric {
	var out []metric
	s := &serveRun{}
	for _, m := range s.serveLayer() {
		out = append(out, metric{Name: m.Name, Unit: m.Unit})
	}
	for _, m := range newCompileRun(diospyros.Options{}, nil).layerMetrics(newLayerTrace(0)) {
		out = append(out, metric{Name: m.Name, Unit: m.Unit})
	}
	for _, k := range bench.Suite() {
		slug := slugify(k.ID)
		out = append(out, metric{Name: "kernel." + slug + ".compile_ms", Unit: "ms"},
			metric{Name: "kernel." + slug + ".cycles", Unit: "cycles"})
	}
	for _, slug := range sourceSlugs() {
		out = append(out, metric{Name: "kernel." + slug + ".compile_ms", Unit: "ms"})
	}
	return out
}

// complete orders ms by schema, fills metrics the workload did not
// measure with 0, and drops none: a name outside the schema is a bug.
func complete(schema, ms []metric) []metric {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, len(schema))
	for i, s := range schema {
		out[i] = s
		if m, ok := byName[s.Name]; ok {
			out[i] = m
			delete(byName, s.Name)
		}
	}
	if len(byName) > 0 {
		extra := make([]string, 0, len(byName))
		for n := range byName {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		panic(fmt.Sprintf("metrics missing from the schema: %v", extra))
	}
	return out
}

// printResult writes the JSON result line. JSON has no infinity: a
// quantile that landed on a failed request is written as the largest
// float64 (the run is not correct then anyway).
func printResult(f *failures, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{f.failed() == 0, f.attempted, f.failed(), map[string]value{}}
	for _, m := range ms {
		v := m.Value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
