package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
)

// metric is one reported number. Samples is how many measurements the
// value summarises (1 for a deterministic count); it is printed in the
// table but not in the JSON result line, whose metric objects carry only
// value and unit.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// failures counts operations attempted and failed, by cause. A cause is a
// short label such as "output", "c_mismatch" or "status_503"; every check
// that finds a wrong result adds one, and none of them stops the run.
type failures struct {
	attempted int
	byCause   map[string]int
}

func newFailures() *failures { return &failures{byCause: map[string]int{}} }

func (f *failures) attempt()         { f.attempted++ }
func (f *failures) add(cause string) { f.byCause[cause]++ }

func (f *failures) merge(o *failures) {
	f.attempted += o.attempted
	for c, n := range o.byCause {
		f.byCause[c] += n
	}
}

func (f *failures) failed() int {
	n := 0
	for _, c := range f.byCause {
		n += c
	}
	return n
}

// String renders the causes in a fixed order, e.g. "output=2 status_503=1",
// or "none".
func (f *failures) String() string {
	if len(f.byCause) == 0 {
		return "none"
	}
	causes := make([]string, 0, len(f.byCause))
	for c := range f.byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	parts := make([]string, len(causes))
	for i, c := range causes {
		parts[i] = fmt.Sprintf("%s=%d", c, f.byCause[c])
	}
	return strings.Join(parts, " ")
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice. +Inf samples sort last, so a
// failed request pushes high quantiles to +Inf rather than vanishing.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive values, or 0 when xs is
// empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// runtimeSample is a reading of the Go runtime's cumulative counters,
// taken before and after a measured operation.
type runtimeSample struct {
	allocBytes uint64  // heap bytes allocated since process start
	gcCycles   uint64  // completed GC cycles
	gcCPU      float64 // CPU seconds spent in GC (runtime estimate)
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// allocSince returns the heap bytes allocated between two readings.
func (r runtimeSample) allocSince(before runtimeSample) float64 {
	return float64(r.allocBytes - before.allocBytes)
}

// printTable writes the human-readable metric table.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-34s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.6g  %-8s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
}
