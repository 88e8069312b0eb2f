package extract

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// unitCost charges 1 per node, ignoring structure.
type unitCost struct{}

func (unitCost) NodeCost(egraph.ENode, []cost.ChildInfo) float64 { return 1 }

func TestExtractPicksSmallerEquivalent(t *testing.T) {
	g := egraph.New()
	big := g.AddExpr(expr.MustParse("(+ (+ x 0) 0)"))
	small := g.AddExpr(expr.Sym("x"))
	g.Union(big, small)
	g.Rebuild()
	ex := New(g, unitCost{})
	out, err := ex.Expr(big)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x" {
		t.Fatalf("extracted %s, want x", out)
	}
	if c := ex.Cost(big); c != 1 {
		t.Fatalf("cost = %g, want 1", c)
	}
}

func TestExtractHandlesCyclicClasses(t *testing.T) {
	// Union x with (+ x 0): the class is cyclic but extraction must
	// terminate and pick the leaf.
	g := egraph.New()
	x := g.AddExpr(expr.Sym("x"))
	plus := g.AddExpr(expr.MustParse("(+ x 0)"))
	g.Union(x, plus)
	g.Rebuild()
	ex := New(g, unitCost{})
	out, err := ex.Expr(plus)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x" {
		t.Fatalf("extracted %s, want x", out)
	}
}

func TestExtractSharedSubterms(t *testing.T) {
	// (+ (* a b) (* a b)): both children must extract to the same pointer.
	g := egraph.New()
	root := g.AddExpr(expr.MustParse("(+ (* a b) (* a b))"))
	ex := New(g, unitCost{})
	out, err := ex.Expr(root)
	if err != nil {
		t.Fatal(err)
	}
	if out.Args[0] != out.Args[1] {
		t.Fatal("shared subterm not shared in extracted DAG")
	}
}

func TestExtractRespectsForbidden(t *testing.T) {
	// ScalarOnly makes vector nodes effectively unusable; when a scalar
	// alternative exists in the class it must win.
	g := egraph.New()
	vecForm := g.AddExpr(expr.MustParse("(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))"))
	scalarForm := g.AddExpr(expr.MustParse("(Vec (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)))"))
	g.Union(vecForm, scalarForm)
	g.Rebuild()
	ex := New(g, cost.ScalarOnly{})
	out, err := ex.Expr(vecForm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != expr.OpVec {
		t.Fatalf("got %s, want the Vec-of-scalars form", out)
	}
	found := false
	out.Walk(func(n *expr.Expr) bool {
		if n.Op == expr.OpVecAdd {
			found = true
		}
		return true
	})
	if found {
		t.Fatal("forbidden VecAdd extracted")
	}
}

func TestCostOfMissingClass(t *testing.T) {
	g := egraph.New()
	id := g.AddExpr(expr.Sym("x"))
	ex := New(g, unitCost{})
	if c := ex.Cost(id); c != 1 {
		t.Fatalf("cost = %g", c)
	}
	if !math.IsInf(ex.Cost(egraph.ClassID(999)), 1) {
		t.Fatal("missing class should cost +Inf")
	}
}

func TestClassifyVec(t *testing.T) {
	syms := map[string]egraph.SymID{}
	get := func(arr string, i int) cost.ChildInfo {
		id, ok := syms[arr]
		if !ok {
			id = egraph.SymID(len(syms) + 1)
			syms[arr] = id
		}
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpGet, Sym: id, Idx: i}}
	}
	lit := func(v float64) cost.ChildInfo {
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpLit, Lit: v}}
	}
	op := func() cost.ChildInfo {
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpAdd}}
	}
	cases := []struct {
		children []cost.ChildInfo
		want     cost.MovementClass
	}{
		{[]cost.ChildInfo{lit(0), lit(1), lit(2), lit(3)}, cost.MoveLiteral},
		{[]cost.ChildInfo{get("a", 0), get("a", 1), get("a", 2), get("a", 3)}, cost.MoveContiguous},
		{[]cost.ChildInfo{get("a", 4), get("a", 5), get("a", 6), get("a", 7)}, cost.MoveContiguous},
		// Unaligned run is not a plain vector load.
		{[]cost.ChildInfo{get("a", 1), get("a", 2), get("a", 3), get("a", 4)}, cost.MoveSingleArray},
		{[]cost.ChildInfo{get("a", 3), get("a", 0), get("a", 5), get("a", 1)}, cost.MoveSingleArray},
		{[]cost.ChildInfo{get("a", 0), lit(0), get("a", 5), lit(0)}, cost.MoveSingleArray},
		{[]cost.ChildInfo{get("a", 0), get("b", 0), get("a", 1), get("b", 1)}, cost.MoveTwoArrays},
		{[]cost.ChildInfo{get("a", 0), get("b", 0), get("c", 0), get("a", 1)}, cost.MoveManyArrays},
		{[]cost.ChildInfo{get("a", 0), op(), get("a", 2), get("a", 3)}, cost.MoveScalarLanes},
	}
	for i, c := range cases {
		got, _ := cost.ClassifyVec(c.children)
		if got != c.want {
			t.Errorf("case %d: ClassifyVec = %v, want %v", i, got, c.want)
		}
	}
}

func TestMovementCostOrdering(t *testing.T) {
	// The §3.4 ordering: literal < contiguous < single-array shuffle <
	// two-array select < many-array < scalar lanes.
	mk := func(children []cost.ChildInfo) float64 {
		n := egraph.ENode{Op: expr.OpVec, Args: make([]egraph.ClassID, len(children))}
		return cost.Diospyros{Width: 4}.NodeCost(n, children)
	}
	syms := map[string]egraph.SymID{}
	get := func(arr string, i int) cost.ChildInfo {
		id, ok := syms[arr]
		if !ok {
			id = egraph.SymID(len(syms) + 1)
			syms[arr] = id
		}
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpGet, Sym: id, Idx: i}}
	}
	lit := cost.ChildInfo{Node: egraph.ENode{Op: expr.OpLit}}
	opc := cost.ChildInfo{Node: egraph.ENode{Op: expr.OpMul}}
	seq := []float64{
		mk([]cost.ChildInfo{lit, lit, lit, lit}),
		mk([]cost.ChildInfo{get("a", 0), get("a", 1), get("a", 2), get("a", 3)}),
		mk([]cost.ChildInfo{get("a", 3), get("a", 1), get("a", 0), get("a", 2)}),
		mk([]cost.ChildInfo{get("a", 0), get("b", 1), get("a", 2), get("b", 3)}),
		mk([]cost.ChildInfo{get("a", 0), get("b", 1), get("c", 2), get("d", 3)}),
		mk([]cost.ChildInfo{get("a", 0), opc, get("a", 2), get("a", 3)}),
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("cost ordering violated at %d: %v", i, seq)
		}
	}
}

// referenceRun is the whole-graph relaxation the dirty-set loop replaced:
// every pass prices every canonical class in ID order, until a pass changes
// nothing. It is the oracle run must match bit for bit.
func referenceRun(g *egraph.EGraph, model cost.Model) map[egraph.ClassID]*Choice {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	best := map[egraph.ClassID]*Choice{}
	nodeCost := func(n egraph.ENode) (float64, bool) {
		children := make([]cost.ChildInfo, len(n.Args))
		sum := 0.0
		for i, a := range n.Args {
			b := best[g.Find(a)]
			if b == nil || !b.ok {
				return 0, false
			}
			children[i] = cost.ChildInfo{Cost: b.Cost, Node: b.Node}
			sum += b.Cost
		}
		total := sum + model.NodeCost(n, children)
		if math.IsInf(total, 0) || math.IsNaN(total) {
			return 0, false
		}
		return total, true
	}
	for {
		changed := false
		g.Classes(func(cls *egraph.EClass) {
			cur := best[cls.ID]
			for _, n := range cls.Nodes {
				c, ok := nodeCost(n)
				if !ok {
					continue
				}
				if cur == nil || !cur.ok || c < cur.Cost {
					cur = &Choice{Cost: c, Node: n, ok: true}
					best[cls.ID] = cur
					changed = true
				}
			}
		})
		if !changed {
			return best
		}
	}
}

// ReferenceMismatches extracts g under model with both New and
// referenceRun and describes every canonical class whose best choice
// differs: presence, cost bits, or node. Exported for the suite-wide
// oracle test, which lives in package extract_test to import the suite.
func ReferenceMismatches(g *egraph.EGraph, model cost.Model) []string {
	ex := New(g, model)
	ref := referenceRun(g, model)
	var out []string
	g.Classes(func(cls *egraph.EClass) {
		got, gotOK := ex.Best(cls.ID)
		want := ref[cls.ID]
		switch {
		case gotOK != (want != nil):
			out = append(out, fmt.Sprintf("class %d: extracted %v, reference %v", cls.ID, gotOK, want != nil))
		case !gotOK:
		case math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !identicalNode(got.Node, want.Node):
			out = append(out, fmt.Sprintf("class %d: extracted %s at %v, reference %s at %v",
				cls.ID, ex.describeNode(got.Node), got.Cost, ex.describeNode(want.Node), want.Cost))
		}
	})
	return out
}

// identicalNode compares nodes field by field, literals by bit pattern.
func identicalNode(a, b egraph.ENode) bool {
	if a.Op != b.Op || math.Float64bits(a.Lit) != math.Float64bits(b.Lit) ||
		a.Sym != b.Sym || a.Idx != b.Idx || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// randomGraph builds a graph of about size classes over Get, literal and
// symbol leaves and scalar, vector and list operators, then merges unions
// random class pairs. Merging a class with one of its descendants makes
// cycles, and with a direct child, self-loops.
func randomGraph(seed int64, size, unions int) *egraph.EGraph {
	r := rand.New(rand.NewSource(seed))
	g := egraph.New()
	var ids []egraph.ClassID
	leaf := func() egraph.ClassID {
		switch r.Intn(3) {
		case 0:
			return g.AddLeaf(expr.OpGet, 0, string(rune('a'+r.Intn(4))), r.Intn(8))
		case 1:
			return g.AddLit(float64(r.Intn(3)))
		default:
			return g.AddLeaf(expr.OpSym, 0, "x", 0)
		}
	}
	ops := []expr.Op{expr.OpAdd, expr.OpMul, expr.OpNeg, expr.OpDiv, expr.OpVec,
		expr.OpVecAdd, expr.OpVecMAC, expr.OpList}
	for len(ids) < size {
		if len(ids) < 4 || r.Intn(4) == 0 {
			ids = append(ids, leaf())
			continue
		}
		op := ops[r.Intn(len(ops))]
		k := expr.Arity(op)
		if k < 0 {
			k = 1 + r.Intn(4)
		}
		args := make([]egraph.ClassID, k)
		for i := range args {
			args[i] = ids[r.Intn(len(ids))]
		}
		ids = append(ids, g.Add(egraph.ENode{Op: op, Args: args}))
	}
	for i := 0; i < unions; i++ {
		g.Union(ids[r.Intn(len(ids))], ids[r.Intn(len(ids))])
	}
	g.Rebuild()
	return g
}

// randomModels are the models the random-graph oracle runs under. The
// Diospyros models price Vec nodes from the children's chosen nodes, the
// case where a stored best cost can be stale.
var randomModels = []cost.Model{
	unitCost{},
	cost.Diospyros{},
	cost.Diospyros{Width: 4},
	cost.ScalarOnly{},
	cost.Overrides{Base: cost.Diospyros{Width: 2}, PerOp: map[string]float64{"VecMAC": 0.2, "+": 3}},
}

// randomCases returns n (seed, size, unions) triples for randomGraph,
// spread from a dozen classes to a few hundred and from no unions to one
// per class; many unions make the backward edges (a class improving after
// a lower-ID user was visited) that exercise the next-pass set.
func randomCases(n int) [][3]int {
	cases := make([][3]int, n)
	for i := range cases {
		seed := i + 1
		size := 10 + seed*37%300
		cases[i] = [3]int{seed, size, seed * 53 % (size + 1)}
	}
	return cases
}

func TestRunMatchesReferenceOnRandomGraphs(t *testing.T) {
	for _, c := range randomCases(300) {
		g := randomGraph(int64(c[0]), c[1], c[2])
		for mi, m := range randomModels {
			if bad := ReferenceMismatches(g, m); len(bad) > 0 {
				t.Errorf("case %v, model %d: %d classes differ, first: %s", c, mi, len(bad), bad[0])
			}
		}
	}
}

func FuzzExtractEquivalence(f *testing.F) {
	for _, c := range randomCases(20) {
		f.Add(int64(c[0]), uint16(c[1]), uint16(c[2]))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, unions uint16) {
		g := randomGraph(seed, 1+int(size%400), int(unions%400))
		for mi, m := range randomModels {
			if bad := ReferenceMismatches(g, m); len(bad) > 0 {
				t.Fatalf("model %d: %d classes differ, first: %s", mi, len(bad), bad[0])
			}
		}
	})
}
