package extract

import (
	"strings"
	"testing"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// TestDecisionsContestedClass saturates (+ a 0) with add-zero so the root
// class holds both the Add node and the bare symbol, then checks the
// decision trace names the winner (a), the runner-up (the Add), and a
// positive margin.
func TestDecisionsContestedClass(t *testing.T) {
	g := egraph.New()
	root := g.AddExpr(expr.MustParse("(+ a 0)"))
	rules := []egraph.Rewrite{egraph.MustRewrite("add-zero", "(+ ?a 0)", "?a")}
	egraph.Run(g, rules, egraph.Limits{})

	ex := New(g, cost.Diospyros{Width: 4})
	ds := ex.Decisions(root)
	if len(ds) == 0 {
		t.Fatal("no decisions recorded")
	}
	var rootD *Decision
	for i := range ds {
		if ds[i].Class == g.Find(root) {
			rootD = &ds[i]
		}
	}
	if rootD == nil {
		t.Fatal("no decision for the root class")
	}
	if rootD.Winner != "a" {
		t.Fatalf("winner = %q, want the bare symbol a", rootD.Winner)
	}
	if !rootD.Contested() || rootD.RunnerUp == "" {
		t.Fatalf("root class should be contested: %+v", rootD)
	}
	if !strings.Contains(rootD.RunnerUp, "+") {
		t.Fatalf("runner-up = %q, want the Add node", rootD.RunnerUp)
	}
	if rootD.Margin <= 0 {
		t.Fatalf("margin = %v, want > 0", rootD.Margin)
	}
	if rootD.RunnerUpCost != rootD.WinnerCost+rootD.Margin {
		t.Fatalf("cost breakdown inconsistent: %+v", rootD)
	}
	// Contested decisions sort before uncontested ones.
	seenUncontested := false
	for _, d := range ds {
		if !d.Contested() {
			seenUncontested = true
		} else if seenUncontested {
			t.Fatal("contested decision after an uncontested one")
		}
	}
}

// TestDecisionsWinnerOwnCost checks the own/subtree cost split: the chosen
// node's own cost plus its children's totals equals its total.
func TestDecisionsWinnerOwnCost(t *testing.T) {
	g := egraph.New()
	root := g.AddExpr(expr.MustParse("(* (+ a b) c)"))
	ex := New(g, cost.Diospyros{Width: 4})
	for _, d := range ex.Decisions(root) {
		if d.WinnerOwn <= 0 {
			t.Fatalf("class %d: own cost %v, want > 0 (strict monotonicity)", d.Class, d.WinnerOwn)
		}
		if d.WinnerOwn > d.WinnerCost {
			t.Fatalf("class %d: own cost %v exceeds total %v", d.Class, d.WinnerOwn, d.WinnerCost)
		}
	}
}

// TestMovementCensus builds Vec nodes of known movement classes directly
// and checks the census.
func TestMovementCensus(t *testing.T) {
	g := egraph.New()
	// One contiguous load: lanes a[0..3].
	contig := expr.MustParse("(Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))")
	// One single-array shuffle: lanes gather within a.
	shuffle := expr.MustParse("(Vec (Get a 3) (Get a 0) (Get a 2) (Get a 1))")
	// One two-array select.
	sel := expr.MustParse("(Vec (Get a 0) (Get b 0) (Get a 1) (Get b 1))")
	root := g.AddExpr(&expr.Expr{Op: expr.OpList, Args: []*expr.Expr{contig, shuffle, sel}})

	ex := New(g, cost.Diospyros{Width: 4})
	mc := ex.Movement(root)
	if mc.Contiguous != 1 || mc.Shuffles != 1 || mc.Selects != 1 {
		t.Fatalf("census = %+v, want contiguous 1, shuffles 1, selects 1", mc)
	}
	if mc.Gathers != 0 || mc.ScalarLanes != 0 {
		t.Fatalf("census = %+v, want no gathers or scalar lanes", mc)
	}
}

// hugeCost prices + at 1e301 and * at 2e301: finite, but above the 1e300
// cut-off decision traces once used for "effectively infinite".
type hugeCost struct{}

func (hugeCost) NodeCost(n egraph.ENode, _ []cost.ChildInfo) float64 {
	switch n.Op {
	case expr.OpAdd:
		return 1e301
	case expr.OpMul:
		return 2e301
	}
	return 1
}

// TestDecisionsKeepHugeFiniteWinner checks that the decision trace prices
// candidates exactly as extraction does: a finite winner above 1e300 keeps
// its own cost, and both finite candidates are counted.
func TestDecisionsKeepHugeFiniteWinner(t *testing.T) {
	g := egraph.New()
	root := g.AddExpr(expr.MustParse("(+ a b)"))
	g.Union(root, g.AddExpr(expr.MustParse("(* a b)")))
	g.Rebuild()
	ex := New(g, hugeCost{})
	if c := ex.Cost(root); c != 1e301+2 {
		t.Fatalf("extracted cost = %v, want 1e301+2", c)
	}
	var rootD *Decision
	for _, d := range ex.Decisions(root) {
		if d.Class == g.Find(root) {
			rootD = &d
		}
	}
	if rootD == nil {
		t.Fatal("no decision for the root class")
	}
	if rootD.WinnerOwn != 1e301 || rootD.Candidates != 2 || rootD.RunnerUp != "(* /2)" {
		t.Fatalf("root decision = %+v, want own 1e301, 2 candidates, runner-up (* /2)", *rootD)
	}
}
