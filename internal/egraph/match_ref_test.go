package egraph

import (
	"fmt"
	"reflect"
	"testing"

	"diospyros/internal/expr"
)

// referenceMatch is the product matcher the compiled search replaced: for
// each class it builds every substitution of the pattern as a nested
// product over e-nodes (arg 0 outermost), cloning the Subst map at every
// variable binding. It is the oracle the compiled program must match
// element for element: same classes, same bindings, same order.
func referenceMatch(g *EGraph, p *Pattern, classes []*EClass) []Match {
	var out []Match
	for _, cls := range classes {
		id := g.Find(cls.ID)
		for _, s := range g.referenceMatchIn(p, id, Subst{}) {
			out = append(out, Match{Class: id, Subst: s})
		}
	}
	return out
}

func (g *EGraph) referenceMatchIn(p *Pattern, id ClassID, subst Subst) []Subst {
	id = g.Find(id)
	if p.Var != "" {
		if bound, ok := subst[p.Var]; ok {
			if g.Find(bound) == id {
				return []Subst{subst}
			}
			return nil
		}
		s := make(Subst, len(subst)+1)
		for k, v := range subst {
			s[k] = v
		}
		s[p.Var] = id
		return []Subst{s}
	}
	cls := g.classes[id]
	if cls == nil {
		return nil
	}
	var results []Subst
	for i := range cls.Nodes {
		n := &cls.Nodes[i]
		if !g.nodeMatches(p, n) {
			continue
		}
		partial := []Subst{subst}
		for i, argPat := range p.Args {
			var next []Subst
			for _, s := range partial {
				next = append(next, g.referenceMatchIn(argPat, n.Args[i], s)...)
			}
			partial = next
			if len(partial) == 0 {
				break
			}
		}
		results = append(results, partial...)
	}
	return results
}

// ReferenceMismatch searches classes with a syntactic rewrite's compiled
// left-hand side and with referenceMatch, and describes the first
// difference ("" when the match lists are identical). ok is false for a
// rewrite that is not syntactic. Exported for the suite-wide oracle test,
// which lives in package egraph_test to import the kernel suite.
func ReferenceMismatch(r Rewrite, g *EGraph, classes []*EClass) (diff string, matches int, ok bool) {
	pr, ok := r.(*patternRewrite)
	if !ok {
		return "", 0, false
	}
	got := pr.SearchClasses(g, classes)
	return matchListDiff(got, referenceMatch(g, pr.lhs, classes)), len(got), true
}

func matchListDiff(got, want []Match) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, reference %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("match %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestCompiledPatternMatchesReference runs the compiled search and the
// reference product matcher over a graph holding the payload kinds and
// multi-node classes the search must enumerate in order: nonlinear
// variables, Get/Func/literal payloads (pinned and wildcard), a var-rooted
// pattern, and one pattern larger than the stack-held search state.
func TestCompiledPatternMatchesReference(t *testing.T) {
	g := New()
	for _, src := range []string{
		"(+ (* a b) (* a b))",
		"(+ (Get x 0) (Get x 1))",
		"(- (Get x 0) (Get x 0))",
		"(+ (func f (Get x 0)) (func g (Get x 1) 2))",
		"(* (+ 1 (Get y 2)) (- (sqrt c) 0))",
		"(neg (neg (+ (* a b) (* a b))))",
	} {
		g.AddExpr(expr.MustParse(src))
	}
	// Merge classes so several e-nodes share a class and choice order
	// matters: (* a b) = (* b a) = (+ a 0), and a = (Get x 0).
	ab := g.AddExpr(expr.MustParse("(* a b)"))
	g.Union(ab, g.AddExpr(expr.MustParse("(* b a)")))
	g.Union(ab, g.AddExpr(expr.MustParse("(+ a 0)")))
	g.Union(g.AddExpr(expr.MustParse("a")), g.AddExpr(expr.MustParse("(Get x 0)")))
	// A pattern past the stack-held frame array, and a chain it matches.
	big, chain := "?z", "c"
	for i := 0; i < inlineInsts; i++ {
		big, chain = fmt.Sprintf("(neg %s)", big), fmt.Sprintf("(neg %s)", chain)
	}
	g.AddExpr(expr.MustParse(fmt.Sprintf("(neg %s)", chain)))
	g.Rebuild()
	pats := []string{
		"(+ ?x ?x)", "(- ?a ?a)", "(* ?a ?b)", "(+ ?a (* ?b ?c))",
		"(+ (* ?a ?b) (* ?a ?b))", "(+ (* ?a ?b) (* ?b ?a))",
		"(Get x 0)", "(Get x ?i)", "(Get ?arr 1)", "(Get nosuch ?i)",
		"(func f ?a)", "(func ?f ?a ?b)", "(func nosuch ?a)",
		"(+ 1 ?a)", "(- ?a 0)", "(+ ?a 0)", "(* ?a 7)",
		"?v", "a", "(sqrt c)", big,
	}
	g.CompressPaths()
	classes := g.CanonicalClasses()
	matched := map[string]int{}
	for _, src := range pats {
		p := MustPattern(src)
		got := compilePattern(p).search(g, classes)
		matched[src] = len(got)
		if d := matchListDiff(got, referenceMatch(g, p, classes)); d != "" {
			t.Errorf("%s: %s", src, d)
		}
		if d := matchListDiff(g.SearchPattern(p), got); d != "" {
			t.Errorf("%s: SearchPattern vs compiled search: %s", src, d)
		}
	}
	for _, src := range []string{"(+ ?x ?x)", "(- ?a ?a)", "(+ (* ?a ?b) (* ?b ?a))", "(Get ?arr 1)", "(func ?f ?a ?b)", "(+ ?a 0)", "?v", big} {
		if matched[src] == 0 {
			t.Errorf("%s matched nothing; the fixture does not test it", src)
		}
	}
	if len(compilePattern(MustPattern(big)).insts) <= inlineInsts {
		t.Fatalf("big pattern does not exceed the inline search state")
	}
}
