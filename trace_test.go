package diospyros

import (
	"context"
	"errors"
	"testing"
	"time"

	"diospyros/internal/egraph"
	"diospyros/internal/kernels"
	"diospyros/internal/pipeline"
)

// The quickstart saxpy kernel (examples/quickstart).
const quickstartSrc = `
kernel saxpy8(x[8], y[8], alpha[1]) -> (out[8]) {
    for i in 0..8 {
        out[i] = x[i] * alpha[0] + y[i];
    }
}
`

// TestCompileTraceQuickstart checks the telemetry contract on a
// quickstart-kernel compile: every executed stage has a span, stage
// durations sum to ≈ Result.Compile, and the per-rule apply counts in the
// iteration gauges reconcile exactly with Report.PerRule.
func TestCompileTraceQuickstart(t *testing.T) {
	opts := testOpts()
	opts.Validate = true
	res, err := CompileSourceContext(context.Background(), quickstartSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace")
	}

	wantStages := []string{StageLift, StageSaturate, StageExtract, StageLower, StageCodegen, StageValidate}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("got %d spans %v, want %d", len(tr.Stages), tr.Stages, len(wantStages))
	}
	for i, name := range wantStages {
		if tr.Stages[i].Name != name {
			t.Errorf("stage %d = %s, want %s", i, tr.Stages[i].Name, name)
		}
	}

	// Stage durations sum to ≈ the end-to-end compile time: never more,
	// and the unattributed remainder is only inter-stage bookkeeping.
	sum := tr.StagesTotal()
	if sum > res.Compile {
		t.Errorf("stage sum %v exceeds compile time %v", sum, res.Compile)
	}
	if gap := res.Compile - sum; gap > 100*time.Millisecond {
		t.Errorf("unattributed time %v too large (stages %v of %v)", gap, sum, res.Compile)
	}
	if res.Compile != tr.Duration || res.AllocBytes != tr.AllocBytes {
		t.Errorf("Result totals (%v, %d) disagree with trace (%v, %d)",
			res.Compile, res.AllocBytes, tr.Duration, tr.AllocBytes)
	}

	// Per-iteration gauges reconcile with the saturation report.
	if len(tr.Iterations) != res.Saturation.Iterations {
		t.Fatalf("%d gauges for %d iterations", len(tr.Iterations), res.Saturation.Iterations)
	}
	per := tr.PerRuleApplied()
	if len(per) != len(res.Saturation.PerRule) {
		t.Fatalf("per-rule gauge names %v vs report %v", per, res.Saturation.PerRule)
	}
	for name, n := range res.Saturation.PerRule {
		if per[name] != n {
			t.Errorf("rule %s: trace says %d applies, report says %d", name, per[name], n)
		}
	}
	g, ok := tr.FinalGauge()
	if !ok || g.Nodes != res.Saturation.Nodes || g.Classes != res.Saturation.Classes {
		t.Errorf("final gauge %+v disagrees with report (%d nodes, %d classes)",
			g, res.Saturation.Nodes, res.Saturation.Classes)
	}
	if tr.StopReason != string(res.Saturation.Reason) {
		t.Errorf("trace stop reason %q vs report %q", tr.StopReason, res.Saturation.Reason)
	}
}

// Validation off ⇒ no validate span; compiling a pre-lifted kernel ⇒ no
// lift span.
func TestCompileTraceSkipsUnusedStages(t *testing.T) {
	res, err := Compile(kernels.MatMul(2, 2, 2), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Trace.Stage(StageValidate); ok {
		t.Error("validate span present without Options.Validate")
	}
	if _, ok := res.Trace.Stage(StageLift); ok {
		t.Error("lift span present for a pre-lifted kernel")
	}
	if _, ok := res.Trace.Stage(StageSaturate); !ok {
		t.Error("saturate span missing")
	}
}

func TestCompileContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, kernels.MatMul(2, 2, 2), testOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err %v is not a StageError", err)
	}
}

// Cancelling mid-saturation aborts the compile with an error wrapping
// context.Canceled, attributed to the saturate stage, promptly.
func TestCompileContextCancelledMidSaturation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// The largest suite kernel: saturation runs for far longer than the
	// cancellation delay, so the cancel lands mid-saturation.
	_, err := CompileContext(ctx, kernels.MatMul(16, 16, 16), testOpts())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("kernel compiled before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != StageSaturate {
		t.Fatalf("err = %v, want saturate StageError", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

// Options.Timeout expiring is NOT a cancellation: the partially saturated
// e-graph still extracts and produces code (the Figure 6 contract).
func TestCompileSaturationTimeoutStillEmitsCode(t *testing.T) {
	opts := testOpts()
	opts.Timeout = time.Millisecond
	res, err := Compile(kernels.MatMul(10, 10, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturation.Reason == egraph.StopCancelled {
		t.Fatalf("internal timeout misreported as cancellation")
	}
	if res.Primary().C == "" || res.Primary().VIR == nil {
		t.Fatal("timed-out compile produced no code")
	}
}
