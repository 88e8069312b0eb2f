package extract_test

import (
	"testing"

	"diospyros/internal/bench"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/extract"
	"diospyros/internal/isa"
	"diospyros/internal/rules"
)

// saturate builds the saturated e-graph the compiler extracts from for a
// suite kernel: the spec, saturated with the vector rules for every width
// in widths (several widths share one graph, as in a multi-target compile).
func saturate(t testing.TB, k bench.Kernel, widths []int) (*egraph.EGraph, egraph.ClassID) {
	t.Helper()
	g := egraph.New()
	root := g.AddExpr(k.Lift().Spec)
	cfg := rules.Config{Widths: widths}
	egraph.Run(g, cfg.Rules(), egraph.Limits{MaxNodes: 10_000_000})
	return g, root
}

// suiteModels are the extraction models of the oracle test: the three
// registry targets and a per-operator override on top of the default.
func suiteModels(t testing.TB) map[string]cost.Model {
	t.Helper()
	models := map[string]cost.Model{
		"overrides": cost.Overrides{Base: cost.ForTarget(isa.Default()),
			PerOp: map[string]float64{"VecMAC": 3, "VecMul": 0.5, "Concat": 0.4}},
	}
	for _, name := range []string{"fg3lite-4", "fg3lite-8", "scalar"} {
		tg, err := isa.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		models[name] = cost.ForTarget(tg)
	}
	return models
}

// TestRunMatchesReferenceOnSuite is the exactness oracle on real graphs:
// for all 21 Table-1 kernels under four models, the dirty-set relaxation
// leaves every canonical class with the same best choice, bit for bit, as
// the whole-graph relaxation it replaced.
func TestRunMatchesReferenceOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("saturates the whole suite")
	}
	models := suiteModels(t)
	for _, k := range bench.Suite() {
		g, _ := saturate(t, k, []int{4, 8})
		for name, m := range models {
			if bad := extract.ReferenceMismatches(g, m); len(bad) > 0 {
				t.Errorf("%s under %s: %d classes differ, first: %s", k.ID, name, len(bad), bad[0])
			}
		}
	}
}

// BenchmarkExtract times one extraction of a saturated graph under the
// default fg3lite-4 model.
func BenchmarkExtract(b *testing.B) {
	for _, id := range []string{"MatMul 8x8 8x8", "QRDecomp 4x4"} {
		var k bench.Kernel
		for _, sk := range bench.Suite() {
			if sk.ID == id {
				k = sk
			}
		}
		if k.Lift == nil {
			b.Fatalf("no suite kernel %q", id)
		}
		g, root := saturate(b, k, []int{4})
		model := cost.ForTarget(isa.Default())
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ex := extract.New(g, model); ex.Cost(root) <= 0 {
					b.Fatal("no program extracted")
				}
			}
		})
	}
}
