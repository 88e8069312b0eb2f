package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	diospyros "diospyros"
)

// MSRow is one kernel's row of the match-worker sweep: the saturate-stage
// wall time at each worker count (best of MSOptions.Repeat runs) and the
// speedup relative to one worker, which runs the match tasks on the
// calling goroutine. Because parallel matching is
// bit-for-bit deterministic (DESIGN.md §9) every column compiles the same
// program; only the wall clock moves.
type MSRow struct {
	Kernel   Kernel
	Workers  []int
	Saturate []time.Duration // indexed like Workers
	Speedup  []float64       // Saturate[0] / Saturate[i]
	Nodes    int             // final e-graph size (identical across columns)
}

// MSOptions parameterizes the match-worker sweep.
type MSOptions struct {
	Opts diospyros.Options
	Only string
	// Workers lists the worker counts to sweep, first entry the baseline.
	// Nil means {1, 2, 4, GOMAXPROCS} (deduplicated, sorted).
	Workers []int
	// Repeat compiles each (kernel, workers) cell this many times and keeps
	// the fastest saturate span, damping scheduler noise. 0 means 3.
	Repeat   int
	Progress func(string)
	// Context cancels the sweep between kernel compiles. Nil means
	// context.Background().
	Context context.Context
}

func (o MSOptions) workerCounts() []int {
	if len(o.Workers) > 0 {
		return o.Workers
	}
	set := map[int]bool{1: true, 2: true, 4: true, runtime.GOMAXPROCS(0): true}
	var out []int
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// MatchSweep compiles every suite kernel once per worker count and reports
// the saturate-stage wall time and parallel speedup. The e-graph statistics
// are asserted identical across worker counts — a sweep doubles as a live
// determinism check — and a mismatch is returned as an error.
func MatchSweep(opt MSOptions) ([]MSRow, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	repeat := opt.Repeat
	if repeat <= 0 {
		repeat = 3
	}
	workers := opt.workerCounts()
	var rows []MSRow
	for _, k := range Suite() {
		if !matchOnly(opt.Only, k.ID) {
			continue
		}
		row := MSRow{Kernel: k, Workers: workers}
		baseNodes, baseC := -1, ""
		for _, w := range workers {
			opts := opt.Opts
			opts.MatchWorkers = w
			best := time.Duration(0)
			for r := 0; r < repeat; r++ {
				res, err := diospyros.CompileContext(ctx, k.Lift(), opts)
				if err != nil {
					return nil, fmt.Errorf("%s (workers=%d): %w", k.ID, w, err)
				}
				d := res.Trace.StageDuration(diospyros.StageSaturate)
				if best == 0 || d < best {
					best = d
				}
				if baseNodes < 0 {
					baseNodes, baseC = res.Saturation.Nodes, res.C
					row.Nodes = baseNodes
				} else if res.Saturation.Nodes != baseNodes || res.C != baseC {
					return nil, fmt.Errorf("%s: workers=%d diverged from baseline (determinism violation)", k.ID, w)
				}
			}
			row.Saturate = append(row.Saturate, best)
		}
		for _, d := range row.Saturate {
			sp := 0.0
			if d > 0 {
				sp = float64(row.Saturate[0]) / float64(d)
			}
			row.Speedup = append(row.Speedup, sp)
		}
		rows = append(rows, row)
		if opt.Progress != nil {
			opt.Progress(fmt.Sprintf("%-20s %7d nodes  %v", k.ID, row.Nodes, row.Saturate))
		}
	}
	return rows, nil
}

// FormatMatchSweep renders the sweep as a table: one row per kernel, one
// saturate-time + speedup column pair per worker count.
func FormatMatchSweep(rows []MSRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return "match-worker sweep: no kernels selected\n"
	}
	fmt.Fprintf(&b, "Match-worker sweep: saturate-stage wall time (best of repeats)\n")
	fmt.Fprintf(&b, "%-22s %9s", "Benchmark", "E-nodes")
	for _, w := range rows[0].Workers {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("N=%d", w))
		if w != rows[0].Workers[0] {
			fmt.Fprintf(&b, " %7s", "spdup")
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %9d", r.Kernel.ID, r.Nodes)
		for i, d := range r.Saturate {
			fmt.Fprintf(&b, " %12v", d.Round(time.Microsecond))
			if i > 0 {
				fmt.Fprintf(&b, " %6.2fx", r.Speedup[i])
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("speedup is serial saturate time over the column's; outputs are identical at every N (DESIGN.md §9)\n")
	return b.String()
}
