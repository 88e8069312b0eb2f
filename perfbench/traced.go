package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	diospyros "diospyros"
	"diospyros/internal/codegen"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/extract"
	"diospyros/internal/frontend"
	"diospyros/internal/isa"
	"diospyros/internal/kernel"
	"diospyros/internal/lower"
	"diospyros/internal/rules"
	"diospyros/internal/validate"
	"diospyros/internal/vir"
)

// Layers of the compiler, in pipeline order, each paired with the name of
// the stage span the compiler itself records for the same work in
// Result.Trace.
var layers = []struct{ name, stage string }{
	{"frontend", diospyros.StageLift},
	{"egraph", diospyros.StageSaturate},
	{"extract", diospyros.StageExtract},
	{"lower", diospyros.StageLower},
	{"codegen", diospyros.StageCodegen},
	{"sim", diospyros.StageSimulate},
	{"validate", diospyros.StageValidate},
}

// span is one call into a layer's entry point, or (Layer "") the compile
// of one kernel that parents those calls. Spans of one compile share the
// Compile id. Times are offsets from the tracer's epoch.
type span struct {
	ID, Parent, Compile int
	Name, Layer, Kernel string
	Start, End          time.Duration
	AllocBytes          float64
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch    time.Time
	spans    []span
	compiles int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens the compile span of one kernel and returns its index.
func (t *tracer) begin(kernel string) int {
	t.compiles++
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Compile: t.compiles, Name: "compile", Kernel: kernel,
		Start: time.Since(t.epoch),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(compile int) { t.spans[compile].End = time.Since(t.epoch) }

// call runs fn as one span of the given layer under the compile span.
func (t *tracer) call(compile int, layer, name string, fn func() error) error {
	parent := t.spans[compile]
	before := readRuntime()
	start := time.Since(t.epoch)
	err := fn()
	end := time.Since(t.epoch)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent.ID, Compile: parent.Compile,
		Name: name, Layer: layer, Kernel: parent.Kernel,
		Start: start, End: end, AllocBytes: readRuntime().allocSince(before),
	})
	return err
}

// layerSelf sums, per layer, the self time (seconds) and allocation
// (bytes) of the spans recorded since index from. Entry-point spans have
// no children, so a span's self time is its duration.
func (t *tracer) layerSelf(from int) (secs, bytes map[string]float64) {
	secs, bytes = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans[from:] {
		if s.Layer != "" {
			secs[s.Layer] += (s.End - s.Start).Seconds()
			bytes[s.Layer] += s.AllocBytes
		}
	}
	return secs, bytes
}

// write saves the spans in Chrome trace-event format (load it in Perfetto
// or chrome://tracing): one "X" event per span, one thread lane per
// compile, with parent and compile ids and allocated bytes in args.
// Summary goes under otherData.
func (t *tracer) write(path string, summary map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		cat := s.Layer
		if cat == "" {
			cat = "compile"
		}
		events[i] = event{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Compile,
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "compile": s.Compile, "kernel": s.Kernel, "alloc_bytes": s.AllocBytes},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": summary})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerCounts are the deterministic counts of one traced pass over a
// kernel set, summed over kernels (and targets).
type layerCounts struct {
	specNodes, iterations, nodes, classes, matches, applied int
	peakBytes                                               int64
	programNodes, virInstrs, asmInstrs                      int
}

// tracedCompile compiles one case by calling each layer's entry point in
// the order the compiler's stages call them, one span per call. It returns
// the artifacts for comparison with the root API's and adds the compile's
// counts to counts.
func tracedCompile(ctx context.Context, t *tracer, c *compileCase, opts diospyros.Options, counts *layerCounts) (*artifacts, error) {
	root := t.begin(c.slug)
	defer t.end(root)

	targets := make([]*isa.Target, len(opts.Targets))
	var widths []int
	for i, name := range opts.Targets {
		tg, err := isa.LookupTarget(name)
		if err != nil {
			return nil, err
		}
		targets[i] = tg
		if tg.Width > 1 {
			widths = append(widths, tg.Width)
		}
	}

	lifted := c.lifted
	if c.source != "" {
		var k *frontend.Kernel
		if err := t.call(root, "frontend", "frontend.Parse", func() (err error) {
			k, err = frontend.Parse(c.source)
			return err
		}); err != nil {
			return nil, err
		}
		if err := t.call(root, "frontend", "frontend.Lift", func() (err error) {
			lifted, err = frontend.Lift(k)
			return err
		}); err != nil {
			return nil, err
		}
	}
	counts.specNodes += lifted.Spec.Size()

	var (
		ruleSet []egraph.Rewrite
		g       *egraph.EGraph
		rootID  egraph.ClassID
		rep     egraph.Report
	)
	_ = t.call(root, "egraph", "rules.Config.Rules", func() error {
		ruleSet = rules.Config{Widths: widths}.Rules()
		return nil
	})
	_ = t.call(root, "egraph", "egraph.AddExpr", func() error {
		g = egraph.New()
		rootID = g.AddExpr(lifted.Spec)
		return nil
	})
	_ = t.call(root, "egraph", "egraph.RunContext", func() error {
		// The compiler's defaults: 10M nodes, 180 s; MaxIterations 0 means 64.
		rep = egraph.RunContext(ctx, g, ruleSet, egraph.Limits{
			MaxNodes: 10_000_000, Timeout: 180 * time.Second, MatchWorkers: opts.MatchWorkers,
		})
		return nil
	})
	if rep.Reason == egraph.StopCancelled {
		return nil, context.Cause(ctx)
	}
	counts.iterations += rep.Iterations
	counts.nodes += rep.Nodes
	counts.classes += rep.Classes
	counts.applied += rep.Applied
	counts.peakBytes += rep.PeakFootprint.Total
	for _, it := range rep.Iters {
		counts.matches += it.Matches
	}

	n := len(targets)
	programs := make([]*expr.Expr, n)
	irs := make([]*vir.Program, n)
	progs := make([]*isa.Program, n)
	a := &artifacts{peak: rep.PeakFootprint.Total, c: make([]string, n), asm: make([]string, n),
		cycles: make([]int64, n), instrs: make([]int, n)}
	for i, tg := range targets {
		var ex *extract.Extractor
		_ = t.call(root, "extract", "extract.New", func() error {
			ex = extract.New(g, cost.ForTarget(tg))
			return nil
		})
		if err := t.call(root, "extract", "extract.Expr", func() (err error) {
			programs[i], err = ex.Expr(rootID)
			return err
		}); err != nil {
			return nil, err
		}
		counts.programNodes += programs[i].Size()
	}
	for i, tg := range targets {
		var raw *vir.Program
		if err := t.call(root, "lower", "lower.Lower", func() (err error) {
			raw, err = lower.Lower(lifted.Name, programs[i], tg.Width, lifted)
			return err
		}); err != nil {
			return nil, err
		}
		_ = t.call(root, "lower", "vir.Optimize", func() error {
			irs[i] = vir.Optimize(raw)
			return nil
		})
		_ = t.call(root, "lower", "vir.BoundPressure", func() error {
			// The compiler's register budget: 56 of 64 vector registers.
			irs[i] = vir.BoundPressure(irs[i], 56)
			return nil
		})
		counts.virInstrs += len(irs[i].Instrs)
	}
	for i, tg := range targets {
		_ = t.call(root, "codegen", "codegen.ToC", func() error {
			a.c[i] = codegen.ToC(irs[i])
			return nil
		})
		if !tg.HasAssembly {
			return nil, fmt.Errorf("target %s has no assembly backend", tg.Name)
		}
		if err := t.call(root, "codegen", "codegen.ToISA", func() (err error) {
			progs[i], err = codegen.ToISA(irs[i], tg)
			return err
		}); err != nil {
			return nil, err
		}
		a.asm[i] = progs[i].Disassemble()
		a.instrs[i] = len(progs[i].Instrs)
		counts.asmInstrs += a.instrs[i]
	}
	if n > 1 {
		// The multi-target simulate stage: cycles on the compiler's fixed
		// inputs, so they can be compared with Result.Targets[i].Cycles.
		inputs := stageInputs(lifted)
		for i := range targets {
			if err := t.call(root, "sim", "codegen.Execute", func() error {
				_, sres, err := codegen.Execute(progs[i], inputs, lifted.Inputs, lifted.Outputs, nil)
				if err == nil {
					a.cycles[i] = sres.Cycles
				}
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	if opts.Validate {
		for i := range targets {
			if err := t.call(root, "validate", "validate.Check", func() error {
				return validate.Check(lifted, programs[i])
			}); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// stageInputs reproduces the inputs of the compiler's simulate stage:
// seed 1, tenths in [-10, 10).
func stageInputs(l *kernel.Lifted) map[string][]float64 {
	r := rand.New(rand.NewSource(1))
	inputs := map[string][]float64{}
	for _, d := range l.Inputs {
		s := make([]float64, d.Len())
		for i := range s {
			s[i] = float64(int(r.Float64()*200-100)) / 10
		}
		inputs[d.Name] = s
	}
	return inputs
}

// matchesAPI reports whether a traced compile produced the root API's
// artifacts: C and assembly byte for byte per target, and the simulate
// stage's cycles where it ran. A traced compile that does not measured a
// different program.
func matchesAPI(traced *artifacts, res *diospyros.Result) bool {
	if len(traced.c) != len(res.Targets) {
		return false
	}
	for i, tr := range res.Targets {
		if tr.Program == nil || traced.c[i] != tr.C || traced.asm[i] != tr.Program.Disassemble() {
			return false
		}
		if len(res.Targets) > 1 && traced.cycles[i] != tr.Cycles {
			return false
		}
	}
	return true
}

// layerTrace accumulates the traced passes of a compileRun.
type layerTrace struct {
	secs, bytes []map[string][]float64 // per case: per layer, one sample per pass
	wall        [][]float64            // per case: traced compile seconds
	counts      *layerCounts           // first pass; later passes must repeat it
}

func newLayerTrace(n int) *layerTrace {
	return &layerTrace{secs: perCase(n), bytes: perCase(n), wall: make([][]float64, n)}
}

// tracedPass compiles every case through the layer entry points, checks
// that each produced the root API's artifacts for that kernel, and adds
// one sample per layer and case. Failures count in the run's totals.
func (r *compileRun) tracedPass(ctx context.Context, t *tracer, lt *layerTrace) {
	var counts layerCounts
	for i, c := range r.cases {
		runtime.GC()
		from := len(t.spans)
		start := time.Now()
		a, err := tracedCompile(ctx, t, c, r.opts, &counts)
		wall := time.Since(start).Seconds()
		r.fails.attempt()
		switch {
		case err != nil:
			r.fails.add("trace_compile")
			continue
		case r.last[i] == nil || !matchesAPI(a, r.last[i]):
			r.fails.add("trace_diverge")
			continue
		}
		lt.wall[i] = append(lt.wall[i], wall)
		secs, bytes := t.layerSelf(from)
		for _, l := range layers {
			lt.secs[i][l.name] = append(lt.secs[i][l.name], secs[l.name])
			lt.bytes[i][l.name] = append(lt.bytes[i][l.name], bytes[l.name])
		}
	}
	if lt.counts == nil {
		lt.counts = &counts
	} else if *lt.counts != counts {
		r.fails.add("drift")
	}
}

// layerMetrics computes the per-layer metrics of a traced run: layer self
// times and allocations (sums over kernels of per-kernel medians), the
// layer counts, Go runtime activity per untraced kernel-set compile, and
// the tracing overhead (traced minus untraced compile_s).
func (r *compileRun) layerMetrics(lt *layerTrace) []metric {
	c := lt.counts
	if c == nil {
		c = &layerCounts{}
	}
	passes := len(r.gcCycles)
	traced := 0
	for _, w := range lt.wall {
		traced = max(traced, len(w))
	}
	self := func(layer string) float64 { return sumMedians(lt.secs, layer) }
	allocMB := func(layer string) float64 { return sumMedians(lt.bytes, layer) / 1e6 }
	ratio := 0.0
	if c.matches > 0 {
		ratio = float64(c.applied) / float64(c.matches)
	}
	var tracedS, untracedS float64
	for i := range r.cases {
		tracedS += median(lt.wall[i])
		untracedS += median(r.wall[i])
	}
	return []metric{
		{"frontend.lift_s", "s", self("frontend"), traced},
		{"frontend.spec_nodes", "count", float64(c.specNodes), 1},
		{"egraph.saturate_s", "s", self("egraph"), traced},
		{"egraph.alloc_mb", "MB", allocMB("egraph"), traced},
		{"egraph.iterations", "count", float64(c.iterations), 1},
		{"egraph.nodes", "count", float64(c.nodes), 1},
		{"egraph.classes", "count", float64(c.classes), 1},
		{"egraph.matches", "count", float64(c.matches), 1},
		{"egraph.applied", "count", float64(c.applied), 1},
		{"egraph.apply_ratio", "ratio", ratio, 1},
		{"egraph.peak_mb", "MB", float64(c.peakBytes) / 1e6, 1},
		{"go.gc_cycles", "count", median(r.gcCycles), passes},
		{"go.gc_cpu_s", "s", median(r.gcCPU), passes},
		{"extract.extract_s", "s", self("extract"), traced},
		{"extract.alloc_mb", "MB", allocMB("extract"), traced},
		{"extract.program_nodes", "count", float64(c.programNodes), 1},
		{"lower.lower_s", "s", self("lower"), traced},
		{"lower.vir_instrs", "count", float64(c.virInstrs), 1},
		{"codegen.codegen_s", "s", self("codegen"), traced},
		{"codegen.asm_instrs", "count", float64(c.asmInstrs), 1},
		{"sim.simulate_s", "s", self("sim"), traced},
		{"validate.validate_s", "s", self("validate"), traced},
		{"validate.alloc_mb", "MB", allocMB("validate"), traced},
		{"trace.overhead_s", "s", tracedS - untracedS, traced},
	}
}

// printAgreement writes, per layer, the self time measured around the
// layer's entry points next to the compiler's own stage spans for the same
// kernels (sums over kernels of per-kernel medians). The two should agree.
func (r *compileRun) printAgreement(w io.Writer, lt *layerTrace) {
	fmt.Fprintf(w, "layer times, outside-measured vs the compiler's Result.Trace stage spans\n")
	fmt.Fprintf(w, "  %-10s %-10s %12s %12s\n", "layer", "stage", "outside s", "stage s")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %-10s %12.6f %12.6f\n", l.name, l.stage, sumMedians(lt.secs, l.name), sumMedians(r.stages, l.stage))
	}
}

// stageAgreement lists, per kernel and layer, the self time measured
// around the layer's entry points next to the compiler's own stage span
// for the same kernel (medians, seconds). It goes into the trace file.
func (r *compileRun) stageAgreement(lt *layerTrace) map[string]map[string][2]float64 {
	out := map[string]map[string][2]float64{}
	for i, c := range r.cases {
		row := map[string][2]float64{}
		for _, l := range layers {
			if outside, inside := median(lt.secs[i][l.name]), median(r.stages[i][l.stage]); outside > 0 || inside > 0 {
				row[l.name] = [2]float64{outside, inside}
			}
		}
		out[c.slug] = row
	}
	return out
}
