package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	diospyros "diospyros"
)

var testOpts = diospyros.Options{Targets: []string{"fg3lite-4"}, MatchWorkers: 1}

// testCases returns two small testdata kernels as compile cases.
func testCases(t *testing.T) []*compileCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var out []*compileCase
	for _, name := range []string{"matmul2x2", "dotprod8"} {
		src, err := os.ReadFile("../testdata/" + name + ".dios")
		if err != nil {
			t.Fatal(err)
		}
		c, err := interpCase(name, string(src), rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// A compile whose simulated output differs from the reference counts as
// one failure, and the pass goes on to the next kernel.
func TestDoctoredOutputCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	cases := testCases(t)
	run := newCompileRun(testOpts, cases)
	run.warmUp(ctx)
	run.pass(ctx)
	if got := run.fails.failed(); got != 0 {
		t.Fatalf("clean pass: %d failures (%s)", got, run.fails)
	}
	cases[0].want["c"][1] += 0.5
	run.pass(ctx)
	if run.fails.attempted != 4 || run.fails.failed() != 1 || run.fails.byCause["output"] != 1 {
		t.Fatalf("doctored pass: attempted %d, failures %s; want 4 attempted, output=1", run.fails.attempted, run.fails)
	}
	if len(run.wall[1]) != 2 {
		t.Fatalf("the kernel after the failure was not measured: %d samples", len(run.wall[1]))
	}
}

// A kernel whose artifacts change between compiles counts as drift, and
// one that misses its committed anchor counts as an anchor failure.
func TestDriftAndAnchorCountAsFailures(t *testing.T) {
	ctx := context.Background()
	cases := testCases(t)
	run := newCompileRun(testOpts, cases)
	run.warmUp(ctx)
	run.base[0].c[0] += "// doctored"
	cases[1].anchor = &anchorRow{Cycles: 1, PeakEGraphBytes: 1}
	run.pass(ctx)
	if run.fails.byCause["drift"] != 1 || run.fails.byCause["anchor"] != 1 {
		t.Fatalf("failures %s; want anchor=1 drift=1", run.fails)
	}
}

// The traced path must reproduce the root API's artifacts byte for byte;
// a difference counts as a failure.
func TestTracedPathMatchesAPI(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []diospyros.Options{testOpts, compileWorkloads["source-3target"].opts} {
		run := newCompileRun(opts, testCases(t))
		run.warmUp(ctx)
		tr, lt := newTracer(), newLayerTrace(len(run.cases))
		run.tracedPass(ctx, tr, lt)
		if got := run.fails.failed(); got != 0 {
			t.Fatalf("%v: traced pass: failures %s", opts.Targets, run.fails)
		}
		run.last[1].Targets[0].C += "// doctored"
		run.tracedPass(ctx, tr, lt)
		if run.fails.byCause["trace_diverge"] != 1 {
			t.Fatalf("%v: failures %s; want trace_diverge=1", opts.Targets, run.fails)
		}
	}
}

func TestCheckResponse(t *testing.T) {
	ref := &artifacts{c: []string{"void k() {}"}, asm: []string{"halt"}}
	body := func(c, asm string) []byte {
		b, _ := json.Marshal(map[string]string{"c": c, "assembly": asm})
		return b
	}
	for _, tc := range []struct {
		status int
		body   []byte
		want   string
	}{
		{200, body("void k() {}", "halt"), ""},
		{200, body("void k() { /* doctored */ }", "halt"), "c_mismatch"},
		{200, body("void k() {}", "nop"), "c_mismatch"},
		{200, []byte("{"), "decode"},
		{503, body("void k() {}", "halt"), "status_503"},
	} {
		if got := checkResponse(tc.status, tc.body, ref); got != tc.want {
			t.Errorf("status %d body %s: cause %q, want %q", tc.status, tc.body, got, tc.want)
		}
	}
}

func TestServerTiming(t *testing.T) {
	q, l, c, s := serverTiming("queue;dur=0.012, cache;dur=0.004, compile;dur=41.250, serialize;dur=0.187")
	if q != 0.012 || l != 0.004 || c != 41.25 || s != 0.187 {
		t.Fatalf("got %v %v %v %v", q, l, c, s)
	}
}

// One balanced round against the in-process server: a quarter of the
// requests miss (salted), the rest hit, and every response is correct.
func TestServeRound(t *testing.T) {
	ctx := context.Background()
	s, err := setupServe(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	s.timedRound(ctx)
	if s.fails.failed() != 0 {
		t.Fatalf("failures %s", s.fails)
	}
	layer := map[string]float64{}
	for _, m := range s.serveLayer() {
		layer[m.Name] = m.Value
	}
	if want := 1 - float64(roundSalted)/roundPerKernel; layer["serve.hit_ratio"] != want {
		t.Fatalf("hit ratio %v, want %v", layer["serve.hit_ratio"], want)
	}
}

// BENCHMARK.json lists exactly the metrics the command prints.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndSchema)
	check("per_layer", spec.PerLayer, perLayerSchema())
}
