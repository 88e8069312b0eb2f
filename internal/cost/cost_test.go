package cost

import (
	"math/rand"
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// get builds a Get child. Symbol payloads are interned IDs since the
// layout overhaul; the model only compares them for equality, so tests use
// a tiny hand-rolled intern table.
func get(arr string, i int) ChildInfo {
	return ChildInfo{Node: egraph.ENode{Op: expr.OpGet, Sym: testSym(arr), Idx: i}}
}

var testSyms = map[string]egraph.SymID{}

func testSym(name string) egraph.SymID {
	id, ok := testSyms[name]
	if !ok {
		id = egraph.SymID(len(testSyms) + 1)
		testSyms[name] = id
	}
	return id
}

func testSymName(id egraph.SymID) string {
	for n, i := range testSyms {
		if i == id {
			return n
		}
	}
	return ""
}

func lit(v float64) ChildInfo {
	return ChildInfo{Node: egraph.ENode{Op: expr.OpLit, Lit: v}}
}

func TestDiospyrosVectorAmortization(t *testing.T) {
	m := Diospyros{Width: 4}
	scalarAdd := m.NodeCost(egraph.ENode{Op: expr.OpAdd}, []ChildInfo{lit(0), lit(0)})
	vecAdd := m.NodeCost(egraph.ENode{Op: expr.OpVecAdd}, nil)
	// One vector op covers Width lanes for about the price of one scalar op.
	if vecAdd > scalarAdd {
		t.Fatalf("VecAdd (%g) should not cost more than one scalar add (%g)", vecAdd, scalarAdd)
	}
}

func TestScalarLoadCharge(t *testing.T) {
	m := Diospyros{Width: 4}
	noLoads := m.NodeCost(egraph.ENode{Op: expr.OpAdd}, []ChildInfo{lit(0), lit(0)})
	twoLoads := m.NodeCost(egraph.ENode{Op: expr.OpAdd}, []ChildInfo{get("a", 0), get("b", 0)})
	if twoLoads-noLoads != 2*ScalarLoadCost {
		t.Fatalf("load charge = %g, want %g", twoLoads-noLoads, 2*ScalarLoadCost)
	}
}

func TestLongLatencyOpsCostMore(t *testing.T) {
	m := Diospyros{Width: 4}
	add := m.NodeCost(egraph.ENode{Op: expr.OpAdd}, []ChildInfo{lit(0), lit(0)})
	div := m.NodeCost(egraph.ENode{Op: expr.OpDiv}, []ChildInfo{lit(0), lit(1)})
	vadd := m.NodeCost(egraph.ENode{Op: expr.OpVecAdd}, nil)
	vdiv := m.NodeCost(egraph.ENode{Op: expr.OpVecDiv}, nil)
	if div <= add || vdiv <= vadd {
		t.Fatal("division should cost more than addition")
	}
}

func TestAllOpsStrictlyPositive(t *testing.T) {
	// Strict monotonicity requires every node's own cost to be positive.
	m := Diospyros{Width: 4}
	for op := expr.Op(0); op < expr.NumOps; op++ {
		n := egraph.ENode{Op: op}
		var children []ChildInfo
		switch expr.Arity(op) {
		case 1:
			children = []ChildInfo{lit(1)}
		case 2:
			children = []ChildInfo{lit(1), lit(1)}
		case 3:
			children = []ChildInfo{lit(1), lit(1), lit(1)}
		}
		if c := m.NodeCost(n, children); c <= 0 {
			t.Errorf("op %s has non-positive cost %g", op, c)
		}
	}
}

func TestScalarOnlyForbidsVectors(t *testing.T) {
	m := ScalarOnly{}
	if c := m.NodeCost(egraph.ENode{Op: expr.OpVecAdd}, nil); c < Forbidden {
		t.Fatalf("VecAdd allowed by ScalarOnly (cost %g)", c)
	}
	if c := m.NodeCost(egraph.ENode{Op: expr.OpAdd}, []ChildInfo{lit(0), lit(0)}); c >= Forbidden {
		t.Fatalf("scalar add forbidden by ScalarOnly (cost %g)", c)
	}
	// List is the scalar program container and must stay allowed.
	if c := m.NodeCost(egraph.ENode{Op: expr.OpList}, nil); c >= Forbidden {
		t.Fatal("List forbidden by ScalarOnly")
	}
}

func TestOverrides(t *testing.T) {
	base := Diospyros{Width: 4}
	m := Overrides{Base: base, PerOp: map[string]float64{
		"VecDiv":        100,
		"func:recip":    0.25,
		"VecFunc:recip": 0.5,
	}}.WithSyms(testSymName)
	if c := m.NodeCost(egraph.ENode{Op: expr.OpVecDiv}, nil); c != 100 {
		t.Fatalf("VecDiv override = %g", c)
	}
	if c := m.NodeCost(egraph.ENode{Op: expr.OpFunc, Sym: testSym("recip")}, nil); c != 0.25 {
		t.Fatalf("func:recip override = %g", c)
	}
	if c := m.NodeCost(egraph.ENode{Op: expr.OpVecFunc, Sym: testSym("recip")}, nil); c != 0.5 {
		t.Fatalf("VecFunc:recip override = %g", c)
	}
	// Other functions and ops fall through to the base model.
	if c := m.NodeCost(egraph.ENode{Op: expr.OpFunc, Sym: testSym("other")}, nil); c == 0.25 {
		t.Fatal("override leaked to a different function")
	}
	if c := m.NodeCost(egraph.ENode{Op: expr.OpVecAdd}, nil); c != base.NodeCost(egraph.ENode{Op: expr.OpVecAdd}, nil) {
		t.Fatal("non-overridden op changed")
	}
}

func TestClassifyVecSplatOfGet(t *testing.T) {
	// Repeated identical Gets are a single-array gather, not contiguous.
	mc, _ := ClassifyVec([]ChildInfo{get("a", 2), get("a", 2), get("a", 2), get("a", 2)})
	if mc != MoveSingleArray {
		t.Fatalf("splat-like Vec classified as %v", mc)
	}
}

// referenceClassify is ClassifyVec as it was before the fixed-size array
// set: the distinct arrays are counted in a map. ClassifyVec must agree
// with it on every input.
func referenceClassify(children []ChildInfo) (MovementClass, int) {
	arrays := map[egraph.SymID]bool{}
	scalarLanes := 0
	allLit := true
	contiguous := true
	var firstArr egraph.SymID
	firstIdx, haveFirst := 0, false
	for i, c := range children {
		switch c.Node.Op {
		case expr.OpLit:
			contiguous = false
		case expr.OpGet:
			allLit = false
			arrays[c.Node.Sym] = true
			if !haveFirst {
				firstArr, firstIdx, haveFirst = c.Node.Sym, c.Node.Idx, true
				if i != 0 {
					contiguous = false
				}
			} else if c.Node.Sym != firstArr || c.Node.Idx != firstIdx+i {
				contiguous = false
			}
		default:
			allLit = false
			contiguous = false
			scalarLanes++
		}
	}
	switch {
	case scalarLanes > 0:
		return MoveScalarLanes, scalarLanes
	case allLit:
		return MoveLiteral, 0
	case contiguous && len(arrays) == 1 && haveFirst && firstIdx%len(children) == 0:
		return MoveContiguous, 0
	case len(arrays) <= 1:
		return MoveSingleArray, 0
	case len(arrays) == 2:
		return MoveTwoArrays, 0
	default:
		return MoveManyArrays, 0
	}
}

func TestClassifyVecMatchesMapCount(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		children := make([]ChildInfo, 1+r.Intn(9))
		for j := range children {
			switch r.Intn(6) {
			case 0:
				children[j] = lit(float64(r.Intn(2)))
			case 1:
				children[j] = ChildInfo{Node: egraph.ENode{Op: expr.OpMul}}
			default:
				// Few arrays and indices, so contiguous runs, splats and
				// one to five distinct arrays all occur.
				children[j] = get(string(rune('a'+r.Intn(5))), r.Intn(2*len(children)))
			}
		}
		gotC, gotL := ClassifyVec(children)
		wantC, wantL := referenceClassify(children)
		if gotC != wantC || gotL != wantL {
			t.Fatalf("ClassifyVec(%+v) = %v, %d; want %v, %d", children, gotC, gotL, wantC, wantL)
		}
	}
}

func TestClassifyVecDoesNotAllocate(t *testing.T) {
	vecs := [][]ChildInfo{
		{get("a", 0), get("a", 1), get("a", 2), get("a", 3)},
		{get("a", 0), get("b", 0), get("c", 0), get("d", 0), get("e", 0), get("a", 1), get("b", 1), get("c", 1)},
		{get("a", 0), lit(0), {Node: egraph.ENode{Op: expr.OpAdd}}, get("b", 3)},
		// More distinct arrays than one map bucket holds.
		{get("a", 0), get("b", 0), get("c", 0), get("d", 0), get("e", 0), get("f", 0),
			get("g", 0), get("h", 0), get("i", 0), get("j", 0), get("k", 0), get("l", 0)},
	}
	for i, v := range vecs {
		if n := testing.AllocsPerRun(100, func() { ClassifyVec(v) }); n != 0 {
			t.Errorf("vec %d: ClassifyVec made %v allocations per call, want 0", i, n)
		}
	}
}

func BenchmarkClassifyVec(b *testing.B) {
	v := []ChildInfo{get("a", 0), get("b", 0), get("a", 1), get("b", 1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ClassifyVec(v)
	}
}
