package kernel

import (
	"math"
	"testing"

	"diospyros/internal/expr"
)

func TestBuilderLiftShapes(t *testing.T) {
	b := NewBuilder("shapes")
	b.Input("a", 2, 3)
	b.InputVec("v", 5)
	out := b.Output("o", 2, 2)
	out2 := b.OutputVec("w", 3)
	out.Set(1, 1, Const(7))
	out2.SetVec(2, Const(9))
	l := b.Lift()
	if l.Name != "shapes" {
		t.Fatalf("name = %q", l.Name)
	}
	if l.InputLen() != 6+5 || l.OutputLen() != 4+3 {
		t.Fatalf("lens = %d, %d", l.InputLen(), l.OutputLen())
	}
	if len(l.Spec.Args) != 7 {
		t.Fatalf("spec has %d elements", len(l.Spec.Args))
	}
	// Unwritten output elements default to 0; written ones carry values.
	if !l.Spec.Args[3].IsLit(7) || !l.Spec.Args[6].IsLit(9) || !l.Spec.Args[0].IsZero() {
		t.Fatalf("spec = %s", l.Spec)
	}
}

func TestInputReadsAreGets(t *testing.T) {
	b := NewBuilder("gets")
	a := b.Input("a", 2, 3)
	o := b.OutputVec("o", 1)
	o.SetVec(0, a.At(1, 2))
	l := b.Lift()
	want := expr.Get("a", 1*3+2)
	if !l.Spec.Args[0].Equal(want) {
		t.Fatalf("got %s, want %s", l.Spec.Args[0], want)
	}
}

func TestAccumulatorReadBack(t *testing.T) {
	// Outputs are readable accumulators: o += x twice yields (+ x x) after
	// peephole (0 + x = x).
	b := NewBuilder("acc")
	a := b.InputVec("a", 1)
	o := b.OutputVec("o", 1)
	o.SetVec(0, Add(o.AtVec(0), a.AtVec(0)))
	o.SetVec(0, Add(o.AtVec(0), a.AtVec(0)))
	l := b.Lift()
	if got := l.Spec.Args[0].String(); got != "(+ (Get a 0) (Get a 0))" {
		t.Fatalf("accumulated spec = %s", got)
	}
}

func TestScalarHelpers(t *testing.T) {
	b := NewBuilder("helpers")
	a := b.InputVec("a", 2)
	x, y := a.AtVec(0), a.AtVec(1)
	cases := []struct {
		got  Scalar
		want string
	}{
		{Sub(x, y), "(- (Get a 0) (Get a 1))"},
		{Sub(x, Const(0)), "(Get a 0)"},
		{DivS(x, y), "(/ (Get a 0) (Get a 1))"},
		{DivS(x, Const(1)), "(Get a 0)"},
		{DivS(Const(6), Const(3)), "2"},
		{NegS(x), "(neg (Get a 0))"},
		{NegS(Const(2)), "-2"},
		{SqrtS(x), "(sqrt (Get a 0))"},
		{SqrtS(Const(0)), "0"},
		{SqrtS(Const(1)), "1"},
		{SgnS(x), "(sgn (Get a 0))"},
		{SgnS(Const(-3)), "-1"},
		{SgnS(Const(0)), "1"},
		{Mul(Const(2), Const(3)), "6"},
	}
	for _, c := range cases {
		if got := c.got.Expr().String(); got != c.want {
			t.Errorf("got %s, want %s", got, c.want)
		}
	}
}

func TestArrayDeclLen(t *testing.T) {
	if (ArrayDecl{Name: "x", Rows: 3, Cols: 4}).Len() != 12 {
		t.Fatal("Len wrong")
	}
}

func TestDeterministicInputs(t *testing.T) {
	b := NewBuilder("det")
	x := b.Input("x", 2, 3)
	y := b.InputVec("y", 5)
	o := b.OutputVec("o", 1)
	o.SetVec(0, Add(x.At(0, 0), y.AtVec(0)))
	l := b.Lift()

	a, c := l.DeterministicInputs(1), l.DeterministicInputs(1)
	if len(a) != 2 || len(a["x"]) != 6 || len(a["y"]) != 5 {
		t.Fatalf("shapes: x %d, y %d", len(a["x"]), len(a["y"]))
	}
	for name, vals := range a {
		for i, v := range vals {
			if v != c[name][i] {
				t.Fatalf("%s[%d]: %v then %v for the same seed", name, i, v, c[name][i])
			}
			if v < -10 || v >= 10 || math.Abs(v*10-math.Round(v*10)) > 1e-9 {
				t.Errorf("%s[%d] = %v, want a tenth in [-10, 10)", name, i, v)
			}
		}
	}
	if d := l.DeterministicInputs(2); d["x"][0] == a["x"][0] && d["y"][0] == a["y"][0] {
		t.Error("different seeds gave the same inputs")
	}
}
