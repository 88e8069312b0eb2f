package diospyros

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/isa"
	"diospyros/internal/kernels"
)

// TestMultiTargetCompile runs one saturation search and extracts once per
// target, checking each target's program is runnable and agrees with the
// specification.
func TestMultiTargetCompile(t *testing.T) {
	l := kernels.MatMul(2, 2, 2)
	opts := testOpts()
	opts.Targets = []string{"fg3lite-4", "fg3lite-8", "scalar"}
	res, err := Compile(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 3 {
		t.Fatalf("got %d target results, want 3", len(res.Targets))
	}
	wantWidths := map[string]int{"fg3lite-4": 4, "fg3lite-8": 8, "scalar": 1}
	for i, name := range opts.Targets {
		tr := res.Targets[i]
		if tr.Target != name {
			t.Fatalf("Targets[%d] = %s, want %s (request order)", i, tr.Target, name)
		}
		if tr.Width != wantWidths[name] {
			t.Errorf("%s: width %d, want %d", name, tr.Width, wantWidths[name])
		}
		if tr.Program == nil {
			t.Fatalf("%s: no assembly program", name)
		}
		if tr.VIR == nil || tr.VIR.Width != tr.Width {
			t.Errorf("%s: missing or wrong-width IR", name)
		}
		if tr.C == "" {
			t.Errorf("%s: no C output", name)
		}
		if tr.Cycles <= 0 {
			t.Errorf("%s: no simulated cycle count", name)
		}
		if tr.Cost <= 0 {
			t.Errorf("%s: non-positive cost %g", name, tr.Cost)
		}
	}
	// The primary target is the first requested one.
	if res.Primary() != &res.Targets[0] {
		t.Error("Primary is not Targets[0]")
	}
	// The scalar target must not use vector instructions.
	for _, in := range res.Targets[2].VIR.Instrs {
		if in.Op.IsVectorValue() {
			t.Fatalf("scalar target IR contains vector op %s", in.Op)
		}
	}
	// Every target's program computes the specification.
	r := rand.New(rand.NewSource(7))
	in := randIn(r, l)
	env := expr.NewEnv()
	for k, v := range in {
		env.Arrays[k] = v
	}
	want, err := l.Spec.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	flat := want.AsSlice()
	for _, name := range opts.Targets {
		got, _, err := res.RunTarget(name, in, nil)
		if err != nil {
			t.Fatalf("%s: RunTarget: %v", name, err)
		}
		for i, wv := range flat {
			if math.Abs(got["c"][i]-wv) > 1e-9 {
				t.Fatalf("%s: c[%d] = %g, want %g", name, i, got["c"][i], wv)
			}
		}
	}
	if _, _, err := res.RunTarget("fg3lite-16", in, nil); err == nil {
		t.Error("RunTarget accepted a target that was not compiled")
	}
}

// TestMultiTargetCyclesUseDeterministicInputs: the per-target cycle counts
// a multi-target compile records are exactly what RunTarget reports on the
// shared DeterministicInputs(1) harness the CLIs simulate with.
func TestMultiTargetCyclesUseDeterministicInputs(t *testing.T) {
	opts := testOpts()
	opts.Targets = []string{"fg3lite-4", "fg3lite-8", "scalar"}
	res, err := Compile(kernels.Conv2D(3, 3, 2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Targets {
		_, sres, err := res.RunTarget(tr.Target, res.Kernel.DeterministicInputs(1), nil)
		if err != nil {
			t.Fatalf("%s: %v", tr.Target, err)
		}
		if tr.Cycles <= 0 || tr.Cycles != sres.Cycles {
			t.Errorf("%s: recorded %d cycles, RunTarget on DeterministicInputs(1) took %d",
				tr.Target, tr.Cycles, sres.Cycles)
		}
	}
}

// TestFailedCompileHasNoPrimary: a compile that fails before extraction
// returns a Result with no targets; Primary is nil and Run reports an
// error instead of panicking.
func TestFailedCompileHasNoPrimary(t *testing.T) {
	res, err := CompileSource("kernel broken(", testOpts())
	if err == nil {
		t.Fatal("malformed kernel compiled")
	}
	if res == nil || res.Trace == nil {
		t.Fatal("failed compile returned no partial result")
	}
	if res.Primary() != nil {
		t.Error("failed compile has a primary target")
	}
	if _, _, err := res.Run(nil, nil); err == nil {
		t.Error("Run on a failed compile succeeded")
	}
}

// TestMultiTargetDedup: duplicate names collapse, order preserved.
func TestMultiTargetDedup(t *testing.T) {
	opts := testOpts()
	opts.Targets = []string{"fg3lite-8", "fg3lite-4", "fg3lite-8"}
	targets, err := ResolveTargets(opts.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0].Name != "fg3lite-8" || targets[1].Name != "fg3lite-4" {
		t.Fatalf("ResolveTargets = %v", targets)
	}
}

// TestResolveTargetsLegacyWidth: a request naming no target resolves to
// the default target, fg3lite-4.
func TestResolveTargetsLegacyWidth(t *testing.T) {
	targets, err := ResolveTargets(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0].Name != "fg3lite-4" {
		t.Fatalf("empty options resolved to %v, want fg3lite-4", targets)
	}
	if _, err := ResolveTargets([]string{"no-such-machine"}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// TestNoBackendError: a registered target without an assembly backend still
// compiles to IR and C, and Run reports the typed ErrNoBackend.
func TestNoBackendError(t *testing.T) {
	custom := &isa.Target{
		Name:        "cc-only-4",
		Width:       4,
		ShuffleCaps: isa.ShuffleCaps{SingleRegister: true, TwoRegister: true},
		HasAssembly: false,
	}
	if err := isa.RegisterTarget(custom); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Targets = []string{"cc-only-4"}
	res, err := Compile(kernels.MatMul(2, 2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Primary().Program != nil {
		t.Fatal("backend-less target produced assembly")
	}
	if res.Primary().C == "" {
		t.Fatal("backend-less target produced no C")
	}
	_, _, err = res.Run(nil, nil)
	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("Run error = %v, want ErrNoBackend", err)
	}
	var nbe *NoBackendError
	if !errors.As(err, &nbe) || nbe.Target != "cc-only-4" {
		t.Fatalf("error does not name the target: %v", err)
	}
	_, _, err = res.RunTarget("cc-only-4", nil, nil)
	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("RunTarget error = %v, want ErrNoBackend", err)
	}
}
