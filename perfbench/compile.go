package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	diospyros "diospyros"
)

// compileRun drives one kernel set through the root API, one compile at a
// time, pass after pass. It checks every compile and keeps the per-kernel
// samples the metrics are computed from.
type compileRun struct {
	opts  diospyros.Options
	cases []*compileCase
	fails *failures

	base   []*artifacts           // first correct artifacts per case; later compiles must equal them
	last   []*diospyros.Result    // latest correct result per case, for the traced pass to match
	wall   [][]float64            // seconds per correct compile, per case
	alloc  [][]float64            // heap bytes per correct compile, per case
	stages []map[string][]float64 // the compiler's own stage spans (Result.Trace), seconds, per case

	// Per pass, over its attempted compiles (a failed compile's latency
	// is +Inf): the 0.5 and 0.99 latency quantiles in seconds, and
	// correct compiles per second of compile wall time.
	passP50, passP99, passRate []float64

	// Go runtime activity during the compiles, one sample per pass.
	gcCycles, gcCPU []float64
}

func newCompileRun(opts diospyros.Options, cases []*compileCase) *compileRun {
	return &compileRun{
		opts:   opts,
		cases:  cases,
		fails:  newFailures(),
		base:   make([]*artifacts, len(cases)),
		last:   make([]*diospyros.Result, len(cases)),
		wall:   make([][]float64, len(cases)),
		alloc:  make([][]float64, len(cases)),
		stages: perCase(len(cases)),
	}
}

func perCase(n int) []map[string][]float64 {
	out := make([]map[string][]float64, n)
	for i := range out {
		out[i] = map[string][]float64{}
	}
	return out
}

// sumMedians returns the sum over cases of the median sample under key.
func sumMedians(samples []map[string][]float64, key string) float64 {
	total := 0.0
	for _, m := range samples {
		total += median(m[key])
	}
	return total
}

// compile runs one case through the root API: source kernels through
// CompileSourceContext (so lift runs), builder kernels through
// CompileContext.
func compile(ctx context.Context, c *compileCase, opts diospyros.Options) (*diospyros.Result, error) {
	if c.source != "" {
		return diospyros.CompileSourceContext(ctx, c.source, opts)
	}
	return diospyros.CompileContext(ctx, c.lifted, opts)
}

// warmUp compiles every case once, untimed, and records the first
// artifacts the timed compiles are compared against.
func (r *compileRun) warmUp(ctx context.Context) {
	for i, c := range r.cases {
		res, err := compile(ctx, c, r.opts)
		if err != nil {
			continue // the timed compiles count it
		}
		if a, cause := checkResult(c, res, r.opts.Validate); cause == "" {
			r.base[i], r.last[i] = a, res
		}
	}
}

// pass compiles every case once. Each compile starts from a collected heap
// so that it pays for its own garbage and not its predecessor's; time and
// allocation are measured around the API call alone.
func (r *compileRun) pass(ctx context.Context) {
	var gcCycles, gcCPU, busy float64
	var latency []float64
	ok := 0
	for i, c := range r.cases {
		runtime.GC()
		before := readRuntime()
		start := time.Now()
		res, err := compile(ctx, c, r.opts)
		wall := time.Since(start).Seconds()
		after := readRuntime()

		r.fails.attempt()
		busy += wall
		gcCycles += float64(after.gcCycles - before.gcCycles)
		gcCPU += after.gcCPU - before.gcCPU
		cause := "compile"
		if err == nil {
			cause = r.check(i, res)
		}
		if cause != "" {
			r.fails.add(cause)
			latency = append(latency, math.Inf(1))
			continue
		}
		ok++
		latency = append(latency, wall)
		r.wall[i] = append(r.wall[i], wall)
		r.alloc[i] = append(r.alloc[i], after.allocSince(before))
		r.last[i] = res
		for _, s := range res.Trace.Stages {
			r.stages[i][s.Name] = append(r.stages[i][s.Name], s.Duration.Seconds())
		}
	}
	r.gcCycles = append(r.gcCycles, gcCycles)
	r.gcCPU = append(r.gcCPU, gcCPU)
	r.passP50 = append(r.passP50, quantile(latency, 0.5))
	r.passP99 = append(r.passP99, quantile(latency, 0.99))
	r.passRate = append(r.passRate, float64(ok)/busy)
}

// check verifies one compile of case i and returns the failure cause, or
// "" when the compile is correct and repeats the case's first artifacts.
func (r *compileRun) check(i int, res *diospyros.Result) string {
	a, cause := checkResult(r.cases[i], res, r.opts.Validate)
	if cause != "" {
		return cause
	}
	if r.base[i] == nil {
		r.base[i] = a
	}
	if !a.equal(r.base[i]) {
		return "drift"
	}
	return ""
}

// artifacts is what one compile produced, per target in request order,
// plus the e-graph's peak footprint. The compiler is deterministic, so two
// compiles of one kernel must produce equal artifacts.
type artifacts struct {
	c, asm []string
	cycles []int64
	instrs []int
	peak   int64
}

func (a *artifacts) equal(b *artifacts) bool {
	if a.peak != b.peak || len(a.c) != len(b.c) {
		return false
	}
	for t := range a.c {
		if a.c[t] != b.c[t] || a.asm[t] != b.asm[t] || a.cycles[t] != b.cycles[t] || a.instrs[t] != b.instrs[t] {
			return false
		}
	}
	return true
}

// checkResult runs every target's program on the case's inputs on the
// simulator, compares the outputs with the reference, and checks
// validation and the committed anchor. It reads only Result.Targets and
// Result.Saturation. The cause is "" when everything holds.
func checkResult(c *compileCase, res *diospyros.Result, validate bool) (*artifacts, string) {
	a := &artifacts{peak: res.Saturation.PeakFootprint.Total}
	if len(res.Targets) == 0 {
		return nil, "no_targets"
	}
	for _, tr := range res.Targets {
		if tr.Program == nil {
			return nil, "no_program"
		}
		got, sres, err := res.RunTarget(tr.Target, c.inputs, nil)
		if err != nil {
			return nil, "simulate"
		}
		if !outputsMatch(got, c.want) {
			return nil, "output"
		}
		if validate && !tr.Validated {
			return nil, "validate"
		}
		a.c = append(a.c, tr.C)
		a.asm = append(a.asm, tr.Program.Disassemble())
		a.cycles = append(a.cycles, sres.Cycles)
		a.instrs = append(a.instrs, len(tr.Program.Instrs))
	}
	if an := c.anchor; an != nil && (a.cycles[0] != an.Cycles || a.peak != an.PeakEGraphBytes) {
		return nil, "anchor"
	}
	return a, ""
}

// outputsMatch compares simulated outputs with the reference element by
// element, allowing for the reassociation a vectorized sum performs.
func outputsMatch(got, want map[string][]float64) bool {
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return false
		}
		scale := 1.0
		for _, x := range w {
			scale = math.Max(scale, math.Abs(x))
		}
		for i := range w {
			if !(math.Abs(g[i]-w[i]) <= 1e-6*scale) {
				return false
			}
		}
	}
	return true
}

// endToEnd computes the compile workloads' end-to-end metrics.
func (r *compileRun) endToEnd() []metric {
	var compileS, allocB, egraphB float64
	var perKernelMS, cycles []float64
	var instrs, samples int
	for i := range r.cases {
		if len(r.wall[i]) > 0 {
			compileS += median(r.wall[i])
			allocB += median(r.alloc[i])
			perKernelMS = append(perKernelMS, 1000*median(r.wall[i]))
			samples += len(r.wall[i])
		}
		if a := r.base[i]; a != nil {
			egraphB += float64(a.peak)
			for t := range a.cycles {
				cycles = append(cycles, float64(a.cycles[t]))
				instrs += a.instrs[t]
			}
		}
	}
	// The latency and throughput figures are medians over passes: a
	// quantile over all compiles of a run would rest on the slowest
	// kernel's few tail samples and swing with the host from run to run.
	attempted := r.fails.attempted
	return []metric{
		{"compile_s", "s", compileS, samples},
		{"compile_ms_geomean", "ms", geomean(perKernelMS), samples},
		{"alloc_mb", "MB", allocB / 1e6, samples},
		{"egraph_mb", "MB", egraphB / 1e6, 1},
		{"cycles_geomean", "cycles", geomean(cycles), len(cycles)},
		{"code_instrs", "instrs", float64(instrs), len(cycles)},
		{"throughput_rps", "req/s", median(r.passRate), attempted},
		{"latency_ms_p50", "ms", 1000 * median(r.passP50), attempted},
		{"latency_ms_p99", "ms", 1000 * median(r.passP99), attempted},
	}
}

// perKernel returns the kernel.<slug>.compile_ms rows and, when withCycles
// is set, the kernel.<slug>.cycles rows (first target).
func (r *compileRun) perKernel(withCycles bool) []metric {
	var out []metric
	for i, c := range r.cases {
		out = append(out, metric{fmt.Sprintf("kernel.%s.compile_ms", c.slug), "ms", 1000 * median(r.wall[i]), len(r.wall[i])})
		if withCycles && r.base[i] != nil {
			out = append(out, metric{fmt.Sprintf("kernel.%s.cycles", c.slug), "cycles", float64(r.base[i].cycles[0]), 1})
		}
	}
	return out
}
