package egraph

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/telemetry"
)

// deepExpr builds a chain (+ (* x_i c) ...) wide enough that the e-graph
// clears the parallel matcher's class-count gate.
func deepExpr(n int) *expr.Expr {
	e := expr.Lit(0)
	for i := 0; i < n; i++ {
		e = expr.Add(e, expr.Mul(expr.Sym(fmt.Sprintf("x%d", i)), expr.Lit(float64(i%7))))
	}
	return e
}

func testRules() []Rewrite {
	return []Rewrite{
		MustRewrite("add-0-l", "(+ 0 ?a)", "?a"),
		MustRewrite("mul-0-r", "(* ?a 0)", "0"),
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		MustRewrite("comm-mul", "(* ?a ?b)", "(* ?b ?a)"),
		MustRewrite("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
	}
}

// runWorkers saturates a fresh graph over deepExpr with the given worker
// count and returns the report plus a canonical dump of the final graph.
func runWorkers(t *testing.T, workers int, jr *Journal) (Report, string) {
	t.Helper()
	return runNodeLimit(t, workers, 20_000, jr)
}

// runNodeLimit is runWorkers with an explicit node limit.
func runNodeLimit(t *testing.T, workers, maxNodes int, jr *Journal) (Report, string) {
	t.Helper()
	g := New()
	g.AddExpr(deepExpr(48))
	rep := Run(g, testRules(), Limits{
		MaxIterations: 4,
		MaxNodes:      maxNodes,
		MatchWorkers:  workers,
		Journal:       jr,
	})
	return rep, g.ToDot()
}

// zeroDurations clears the wall-time fields of a report, the only fields
// allowed to differ between worker counts.
func zeroDurations(rep Report) Report {
	rep.Duration = 0
	rep.Iters = append([]telemetry.IterationGauge(nil), rep.Iters...)
	for i := range rep.Iters {
		rep.Iters[i].Duration = 0
	}
	return rep
}

// TestParallelMatchDeterminism checks the tentpole contract: any worker
// count produces the same iteration count, application counts, per-rule
// attribution, and — via the dot dump — the same final e-graph as one
// worker.
func TestParallelMatchDeterminism(t *testing.T) {
	repSerial, dotSerial := runWorkers(t, 1, nil)
	for _, workers := range []int{2, 4, 8} {
		rep, dot := runWorkers(t, workers, nil)
		if rep.Iterations != repSerial.Iterations || rep.Applied != repSerial.Applied ||
			rep.Nodes != repSerial.Nodes || rep.Classes != repSerial.Classes ||
			rep.Reason != repSerial.Reason {
			t.Fatalf("workers=%d report diverged: %+v vs serial %+v", workers, rep, repSerial)
		}
		if !reflect.DeepEqual(rep.PerRule, repSerial.PerRule) {
			t.Fatalf("workers=%d per-rule counts diverged:\n%v\nvs serial\n%v",
				workers, rep.PerRule, repSerial.PerRule)
		}
		if dot != dotSerial {
			t.Fatalf("workers=%d produced a different final e-graph", workers)
		}
	}
}

// TestParallelMatchGauges checks that the per-iteration gauges (the trace
// the server and bench read) are identical at different worker counts,
// modulo wall-time fields.
func TestParallelMatchGauges(t *testing.T) {
	repSerial, _ := runWorkers(t, 1, nil)
	repPar, _ := runWorkers(t, 8, nil)
	if len(repSerial.Iters) != len(repPar.Iters) {
		t.Fatalf("iteration gauge counts differ: %d vs %d", len(repSerial.Iters), len(repPar.Iters))
	}
	for i := range repSerial.Iters {
		a, b := repSerial.Iters[i], repPar.Iters[i]
		a.Duration, b.Duration = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iteration %d gauges diverged:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// journalRuleKey identifies one rule-attribution event.
type journalRuleKey struct {
	iter int
	rule string
}

// journalRuleCounts returns the journal's rule attribution (matches,
// applications, new nodes) keyed by iteration and rule.
func journalRuleCounts(jr *Journal) map[journalRuleKey][3]int {
	out := map[journalRuleKey][3]int{}
	for _, ev := range jr.Events() {
		if ev.Kind == JournalRule {
			out[journalRuleKey{ev.Iteration, ev.Rule}] = [3]int{ev.Matches, ev.Applied, ev.NewNodes}
		}
	}
	return out
}

// TestParallelMatchJournalCounts checks that the flight recorder's rule
// attribution (matches, applications, new nodes) is identical at different
// worker counts; only Duration fields may differ.
func TestParallelMatchJournalCounts(t *testing.T) {
	jrSerial := NewJournal(0)
	runWorkers(t, 1, jrSerial)
	jrPar := NewJournal(0)
	runWorkers(t, 8, jrPar)
	if jrSerial.Total() != jrPar.Total() {
		t.Fatalf("journal event totals differ: %d vs %d", jrSerial.Total(), jrPar.Total())
	}
	if !reflect.DeepEqual(journalRuleCounts(jrSerial), journalRuleCounts(jrPar)) {
		t.Fatalf("journal rule attribution diverged:\n%v\nvs\n%v",
			journalRuleCounts(jrSerial), journalRuleCounts(jrPar))
	}
}

// TestNodeLimitStopParity stops a run at the node limit in the middle of
// an apply phase and checks that the stopped run is the same at one and
// four workers: the Report (durations zeroed), the final graph, and the
// journal's rule attribution, including the cut-short rule's event.
func TestNodeLimitStopParity(t *testing.T) {
	const maxNodes = 1500
	jr1, jr4 := NewJournal(0), NewJournal(0)
	rep1, dot1 := runNodeLimit(t, 1, maxNodes, jr1)
	rep4, dot4 := runNodeLimit(t, 4, maxNodes, jr4)
	if rep1.Reason != StopNodeLimit {
		t.Fatalf("reason = %s, want %s (%+v)", rep1.Reason, StopNodeLimit, rep1)
	}
	if last := rep1.Iters[len(rep1.Iters)-1]; last.Applied == 0 || last.Applied >= last.Matches {
		t.Fatalf("last iteration applied %d of %d matches; want a stop mid-apply",
			last.Applied, last.Matches)
	}
	if a, b := zeroDurations(rep1), zeroDurations(rep4); !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverged:\n%+v\nvs\n%+v", a, b)
	}
	if dot1 != dot4 {
		t.Fatal("final e-graphs diverged")
	}
	if jr1.Total() != jr4.Total() {
		t.Fatalf("journal event totals differ: %d vs %d", jr1.Total(), jr4.Total())
	}
	if a, b := journalRuleCounts(jr1), journalRuleCounts(jr4); !reflect.DeepEqual(a, b) {
		t.Fatalf("journal rule attribution diverged:\n%v\nvs\n%v", a, b)
	}
}

// TestCompressPathsMakesFindReadOnly verifies the invariant the parallel
// matcher rests on: after CompressPaths every union-find chain has length
// at most one, so Find returns without writing.
func TestCompressPathsMakesFindReadOnly(t *testing.T) {
	g := New()
	ids := make([]ClassID, 20)
	for i := range ids {
		ids[i] = g.AddLeaf(expr.OpSym, 0, fmt.Sprintf("s%d", i), 0)
	}
	// Chain unions to build long paths.
	for i := 1; i < len(ids); i++ {
		g.Union(ids[i-1], ids[i])
	}
	g.Rebuild()
	g.CompressPaths()
	for i := range g.uf {
		root := g.uf[i]
		if g.uf[root] != root {
			t.Fatalf("uf[%d]=%d is not a root after CompressPaths", i, root)
		}
	}
	// All Finds must agree and must not alter the array.
	before := append([]ClassID(nil), g.uf...)
	want := g.Find(ids[0])
	for _, id := range ids {
		if got := g.Find(id); got != want {
			t.Fatalf("Find(%d)=%d, want %d", id, got, want)
		}
	}
	if !reflect.DeepEqual(before, g.uf) {
		t.Fatal("Find mutated the union-find after CompressPaths")
	}
}

// cancelOnSearch wraps a rewrite and cancels the run's context from inside
// its search — a deterministic cancellation during the match phase.
type cancelOnSearch struct {
	Rewrite
	cancel context.CancelFunc
}

func (c cancelOnSearch) Search(g *EGraph) []Match {
	c.cancel()
	return c.Rewrite.Search(g)
}

// TestParallelSearchCancellation checks that a context cancelled during
// the match phase stops the run in that iteration and reports
// StopCancelled, with no matches recorded, at every worker count.
func TestParallelSearchCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := New()
			g.AddExpr(deepExpr(64))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rules := append([]Rewrite{cancelOnSearch{MustRewrite("mul-1", "(* ?a 1)", "?a"), cancel}},
				testRules()...)
			rep := RunContext(ctx, g, rules, Limits{MaxIterations: 6, MatchWorkers: workers})
			if rep.Reason != StopCancelled {
				t.Fatalf("reason = %s, want %s", rep.Reason, StopCancelled)
			}
			if rep.Iterations != 1 || rep.Applied != 0 || len(rep.Iters) != 1 || rep.Iters[0].Matches != 0 {
				t.Fatalf("cancelled match phase recorded work: %+v", rep)
			}
		})
	}
}

// TestMatchWorkersResolution covers the Limits.MatchWorkers defaulting.
func TestMatchWorkersResolution(t *testing.T) {
	if got := (Limits{}).matchWorkers(); got != DefaultMatchWorkers() {
		t.Fatalf("zero MatchWorkers resolved to %d, want %d", got, DefaultMatchWorkers())
	}
	if got := (Limits{MatchWorkers: -3}).matchWorkers(); got != 1 {
		t.Fatalf("negative MatchWorkers resolved to %d, want 1", got)
	}
	if got := (Limits{MatchWorkers: 5}).matchWorkers(); got != 5 {
		t.Fatalf("MatchWorkers=5 resolved to %d", got)
	}
}
