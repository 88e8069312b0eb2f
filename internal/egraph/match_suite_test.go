package egraph_test

import (
	"testing"

	"diospyros/internal/bench"
	"diospyros/internal/egraph"
	"diospyros/internal/rules"
)

// TestCompiledSearchMatchesReferenceAcrossSuite is the differential oracle
// for compiled patterns (DESIGN.md §14.5) on real search graphs: after
// every iteration of each of the 21 suite kernels, every scalar and AC
// rule — plus nonlinear, payload and var-rooted probes — must return
// exactly the reference product matcher's match list, element for
// element. Identical lists in identical order are what keep the apply
// phase, and so every artifact, unchanged.
func TestCompiledSearchMatchesReferenceAcrossSuite(t *testing.T) {
	suite := bench.Suite()
	if len(suite) != 21 {
		t.Fatalf("suite has %d kernels, want 21", len(suite))
	}
	if testing.Short() {
		suite = suite[:4]
	}
	probes := []egraph.Rewrite{
		egraph.MustRewrite("nonlinear-add", "(+ ?x ?x)", "?x"),
		egraph.MustRewrite("nonlinear-sub", "(- ?a ?a)", "0"),
		egraph.MustRewrite("nonlinear-deep", "(+ (* ?a ?b) (* ?a ?c))", "?a"),
		egraph.MustRewrite("nonlinear-mul", "(* ?x ?x)", "?x"),
		egraph.MustRewrite("two-products", "(+ (* ?a ?b) (* ?c ?d))", "?a"),
		egraph.MustRewrite("nonlinear-sqrt", "(sqrt (+ (* ?a ?a) ?b))", "?b"),
		egraph.MustRewrite("lit-sub", "(- 0 ?a)", "?a"),
		egraph.MustRewrite("get-any", "(* (Get ?arr ?i) ?b)", "?b"),
		egraph.MustRewrite("get-pinned", "(Get a 0)", "0"),
		egraph.MustRewrite("func-any", "(func ?f ?a)", "?a"),
		egraph.MustRewrite("var-rooted", "?v", "?v"),
	}
	// The graphs grow under the AC rules too, so that classes hold several
	// e-nodes and the order in which the search tries them is exercised.
	grow := rules.Config{Widths: []int{4}, EnableAC: true}.Rules()
	checked := append(grow, probes...)
	matched := map[string]int{}
	for _, k := range suite {
		lf := k.Lift()
		g := egraph.New()
		g.AddExpr(lf.Spec)
		for iter := 1; iter <= 5; iter++ {
			g.CompressPaths()
			classes := g.CanonicalClasses()
			for _, r := range checked {
				diff, n, ok := egraph.ReferenceMismatch(r, g, classes)
				if !ok {
					continue // a custom searcher, not a compiled pattern
				}
				matched[r.Name()] += n
				if diff != "" {
					t.Errorf("%s iteration %d: rule %s: %s", k.ID, iter, r.Name(), diff)
				}
			}
			rep := egraph.Run(g, grow, egraph.Limits{MaxIterations: 1, MaxNodes: 8000, MatchWorkers: 1})
			if rep.Reason != egraph.StopIterLimit {
				break // saturated or capped: the graph no longer changes
			}
		}
	}
	// Each probe kind must have matched somewhere, or it checked nothing.
	// (+ ?x ?x), (- ?a ?a), the shared-factor sum and func never occur in
	// the suite; there they check agreement on misses, and the unit test
	// TestCompiledPatternMatchesReference covers them matching.
	for _, name := range []string{"nonlinear-mul", "nonlinear-sqrt", "get-any", "get-pinned",
		"lit-sub", "var-rooted", "two-products", "comm-add", "assoc-add-l", "assoc-mul-l", "neg-mul"} {
		if matched[name] == 0 {
			t.Errorf("rule %s never matched across the suite; the oracle checks nothing for it", name)
		}
	}
}
